"""The mutant catalog: small breaks of the source that named tests catch.

Each entry is one mutant: a source file, a snippet that occurs exactly
once in it, the snippet's replacement, the pytest node ids that must fail
once it is applied, and a phrase of the CHANGES.md entry whose claim it
re-runs.  From the repository root,

    python tests/mutants.py

copies what the tier-1 tests read (``src/``, ``tests/``, ``scenarios/``,
``README.md`` and ``pyproject.toml``) to a temporary directory and first
runs every listed node id there unmutated, which must pass.  Then it
applies each mutant in turn, runs only its node ids with ``-x`` in a
fresh pytest process, which imports the mutated ``src``, and puts the
file back.  It prints one line per mutant, with the test that killed it,
and exits 1 if any mutant survives (its tests pass) or cannot be run.
A surviving mutant becomes a FOUND or a new test, never a deleted
entry.  ``test_mutants.py`` checks in tier-1 that every snippet still
occurs exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    path: str  # from the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    entry: str  # a phrase of the CHANGES.md entry it comes from


MUTANTS = (
    Mutant(
        "src/mixent/_forms.py",
        "[-r for r in rs]",
        "[r for r in rs]",
        ("tests/test_remainders.py::TestLogMultinomial::test_exact_counts_agree",),
        "One new private `combinatorics._log_multinomial(ns, form)`",
    ),
    Mutant(
        "src/mixent/oracle.py",
        "        return ()\n    base = N + 1\n",
        "        return ()\n    base = N\n",
        ("tests/test_oracle.py",),
        "base N instead of N+1",
    ),
    Mutant(
        "src/mixent/_scenario.py",
        "values = {grid_q} if len(per_species) > 1 else set()",
        "values = {grid_q}",
        ("tests/test_mixing.py::TestSweepReports::test_each_point_is_the_replaced_scenario",),
        "mutants that give one species the grid q or ignore grid_q fail it",
    ),
    Mutant(
        "src/mixent/cli.py",
        'if not flag.startswith("--") or flag in texts:',
        'if not flag.startswith("--"):',
        ("tests/test_cli.py::test_canonical_reader_agrees_with_argparse",),
        "in full and given once",
    ),
    Mutant(
        "src/mixent/statmech.py",
        "\n_publish(__name__, CountingModel)\n",
        "\n",
        (
            "tests/test_import_path.py::test_pickle_bytes_are_those_before_the_move[entropy-result-5]",
            "tests/test_import_path.py::test_pickle_bytes_are_those_before_the_move[mixing-report-5]",
        ),
        "`EntropyResult` is defined in `statmech` again",
    ),
    Mutant(
        "src/mixent/mixing.py",
        "\nimport math\n",
        "\nfrom __future__ import annotations\n\nimport math\n",
        (
            "tests/test_import_path.py::test_submodule_import_loads_no_typing_or_pathlib"
            "[mixent.mixing]",
        ),
        "no mixent module imports `__future__`",
    ),
)


def _pytest(root: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess[str]:
    """``pytest -x`` over ``tests`` in a fresh process under ``root``, whose
    ``src`` comes first on the import path."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _outcome(root: Path, mutant: Mutant) -> str:
    """Apply ``mutant`` under ``root``, run its tests, put the file back:
    'killed by' the failed test, 'survived', or what kept it from running."""
    path = root / mutant.path
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        return "not run: the snippet does not occur exactly once"
    path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        proc = _pytest(root, mutant.tests)
    finally:
        path.write_text(original, encoding="utf-8")
    lines = proc.stdout.strip().splitlines() or ["no output"]
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:  # a test failed
        failed = [line.split(" - ")[0] for line in lines if line.startswith("FAILED ")]
        return f"killed by {failed[0][len('FAILED '):]}" if failed else "killed"
    return f"not run: pytest exited {proc.returncode}: {lines[-1]}"


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, root / name)
        control = _pytest(root, tuple(t for mutant in MUTANTS for t in mutant.tests))
        if control.returncode != 0:
            print(control.stdout, end="")
            print("the listed tests fail without a mutant; no mutant was run")
            return 1
        for mutant in MUTANTS:
            outcome = _outcome(root, mutant)
            failed += not outcome.startswith("killed")
            print(f"{mutant.path}: {mutant.snippet.strip()!r}: {outcome}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
