"""numpy, fractions and decimal stay off the import path: `import mixent`
and every CLI subcommand.

Each check runs in a fresh interpreter, because this test process has
already imported numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixent

SRC = Path(mixent.__file__).resolve().parents[1]
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "partial_overlap.scenario"

# prints one line per checkpoint: the checkpoint, then whether numpy is loaded
PROBE = """
import contextlib, io, sys
import mixent
print("import", "numpy" in sys.modules)
from mixent.cli import main
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print("main", code, "numpy" in sys.modules)
"""


def _run_probe(script: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return proc.stdout.splitlines()


def _probe(*argv: str) -> list[str]:
    return _run_probe(PROBE, *argv)


def test_import_mixent_loads_no_numpy():
    assert _probe() == ["import False"]


SUBCOMMANDS = {
    "count-binomial": ("count", "binomial", "12", "5"),
    "count-multiplicity": ("count", "multiplicity", "--occ", "2,1", "--deg", "2,1"),
    "entropy-V": ("entropy", "--N", "100", "--T", "1.0", "--V", "2.0"),
    "entropy-levels": ("entropy", "--N", "100", "--T", "1.0", "--levels", "0:1,1:2,2.5:3"),
    "mix-csv": ("mix", "--scenario", str(SCENARIO)),
    "mix-json": ("mix", "--scenario", str(SCENARIO), "--format", "json"),
    "sweep-overlap": ("sweep-overlap", "--scenario", str(SCENARIO), "--points", "11"),
    "oracle-check": ("oracle-check", "--max-n", "2"),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_loads_no_numpy(name):
    assert _probe(*SUBCOMMANDS[name]) == ["import False", "main 0 False"]


# the same checkpoints, printing which of the modules named in argv[1] are loaded
MODULES_PROBE = """
import contextlib, io, sys
watched = sys.argv[1].split(",")
def loaded():
    return ",".join(m for m in watched if m in sys.modules) or "-"
import mixent
print("import", loaded())
from mixent.cli import main
argv = sys.argv[2:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print("main", code, loaded())
"""

# Fraction is imported only inside multiplicity_gibbs_corrected_exact;
# fractions itself imports decimal
EXACT_ARITHMETIC = "fractions,decimal"


def test_import_mixent_loads_no_fractions_or_decimal():
    assert _run_probe(MODULES_PROBE, EXACT_ARITHMETIC) == ["import -"]


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_loads_no_fractions_or_decimal(name):
    assert _run_probe(MODULES_PROBE, EXACT_ARITHMETIC, *SUBCOMMANDS[name]) == [
        "import -",
        "main 0 -",
    ]


def test_modules_probe_sees_fractions_once_used():
    # the probe can fail: the exact rational loads both modules
    probe = MODULES_PROBE.replace(
        "import mixent\n",
        "import mixent\nmixent.multiplicity_gibbs_corrected_exact((2,), (1,))\n",
    )
    assert _run_probe(probe, EXACT_ARITHMETIC) == ["import fractions,decimal"]
