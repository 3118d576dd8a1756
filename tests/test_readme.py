"""README's examples run as written and give the values their comments state.

Each line of the "Command line" block is canonical, so it is read without
argparse, and goes through ``main()`` from the repository root and exits
0.  Each ``python`` block of "Library tour" runs statement by statement,
and every expression with a trailing comment is checked against what
that comment says.
"""

from __future__ import annotations

import ast
import math
import re
import shlex
from pathlib import Path

import pytest

from mixent import cli
from mixent.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def _blocks(title: str, language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", _section(title), re.M | re.S)


COMMANDS = [line for line in _blocks("Command line", "")[0].splitlines() if line]

# expression -> (how its comment starts, a check of its value in the block's names)
TOUR = {
    "binomial(12, 5).value": ("792", lambda v, ns: v == 792),
    "multiplicity_distinguishable((2, 1), (2, 1)).value": ("12", lambda v, ns: v == 12),
    "multiplicity_gibbs_corrected((2,), (1,))": (
        "log-only", lambda v, ns: v.is_log_only
    ),
    # the comment gives the exact value to 15 digits; the float is 2e-15 off it
    "entropy_from_levels(ens, CountingModel.DISTINGUISHABLE).S": (
        "582.203108888218",
        lambda v, ns: math.isclose(v, 582.203108888218, rel_tol=1e-14),
    ),
    "report.delta_S": (
        "693.147...  = 1000 ln 2",
        lambda v, ns: math.isclose(v, 1000 * math.log(2), rel_tol=1e-15),
    ),
    "report.separation_work": (
        "T * delta_S", lambda v, ns: v == ns["a"].T * ns["report"].delta_S
    ),
    "verify_counting(4, (2, 3)).ok": ("True", lambda v, ns: v is True),
}


def _tour():
    """(expression, its value, its comment, the block's names) per
    commented expression of the tour's python blocks, in order."""
    for block in _blocks("Library tour", "python"):
        lines = block.splitlines()
        names: dict = {}
        for node in ast.parse(block).body:
            if not isinstance(node, ast.Expr):
                exec(compile(ast.Module([node], []), "README.md", "exec"), names)
                continue
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), names)
            code, _, comment = lines[node.end_lineno - 1].partition("#")
            yield code.strip(), value, comment.strip(), names


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_exits_0(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("MIXENT_KB", raising=False)
    program, *argv = shlex.split(line)
    assert program == "mixent"
    assert cli._read_canonical(argv) is not None
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_library_tour_gives_the_stated_values():
    seen = []
    for code, value, comment, names in _tour():
        stated, check = TOUR[code]
        assert comment.startswith(stated), code
        assert check(value, names), (code, value)
        seen.append(code)
    assert seen == list(TOUR)
