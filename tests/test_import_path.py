"""What `import mixent` and each CLI subcommand load, and the public surface.

numpy, fractions and decimal stay off the import path.  `import mixent`
loads no submodule, and each subcommand loads only the modules it runs.
The package's names resolve lazily to the same objects as before.

Each import check runs in a fresh interpreter, because this test process
has already imported numpy and every mixent module.  One interpreter per
subcommand watches every module the checks ask about, and each check
reads its own modules from that run.
"""

from __future__ import annotations

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixent

SRC = Path(mixent.__file__).resolve().parents[1]
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "partial_overlap.scenario"

# prints one line per checkpoint: the checkpoint, then which of the modules
# named in argv[1] are loaded ("-" for none)
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

# Fraction is imported only inside multiplicity_gibbs_corrected_exact;
# fractions itself imports decimal
EXACT_ARITHMETIC = "fractions,decimal"
# mixent's submodules beyond what count and entropy need, and json
FOOTPRINT = "mixent.mixing,mixent.scenario_io,mixent.oracle,mixent.statmech,json"
# subcommand -> the watched modules it loads, in FOOTPRINT order
LOADED_BY = {
    "count-binomial": "mixent.statmech",
    "count-multiplicity": "mixent.statmech",
    "entropy-V": "mixent.statmech",
    "entropy-levels": "mixent.statmech",
    "mix-csv": "mixent.mixing,mixent.scenario_io,mixent.statmech",
    "mix-json": "mixent.mixing,mixent.scenario_io,mixent.statmech,json",
    "sweep-overlap": "mixent.mixing,mixent.scenario_io,mixent.statmech",
    "oracle-check": "mixent.oracle,mixent.statmech",
}


@functools.cache
def _probe(name: str | None) -> tuple[str, ...]:
    """The probe's lines for one subcommand (None: bare import), watching
    every module the tests below ask about: one interpreter per subcommand."""
    argv = SUBCOMMANDS[name] if name else ()
    return tuple(_run_probe(MODULES_PROBE, f"numpy,{EXACT_ARITHMETIC},{FOOTPRINT}", *argv))


def _seen(name: str | None, modules: str) -> list[str]:
    """The probe's lines for ``name``, each listing only the loaded ``modules``."""
    keep = modules.split(",")
    lines = []
    for line in _probe(name):
        *checkpoint, loaded = line.split(" ")
        kept = ",".join(m for m in loaded.split(",") if m in keep) or "-"
        lines.append(" ".join([*checkpoint, kept]))
    return lines


def test_import_mixent_loads_no_numpy():
    assert _seen(None, "numpy") == ["import -"]


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_loads_no_numpy(name):
    assert _seen(name, "numpy") == ["import -", "main 0 -"]


def test_import_mixent_loads_no_fractions_or_decimal():
    assert _seen(None, EXACT_ARITHMETIC) == ["import -"]


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_loads_no_fractions_or_decimal(name):
    assert _seen(name, EXACT_ARITHMETIC) == ["import -", "main 0 -"]


def test_import_mixent_loads_no_submodule_or_json():
    assert _seen(None, FOOTPRINT) == ["import -"]


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_cli_subcommand_loads_only_what_it_runs(name):
    assert _seen(name, FOOTPRINT) == ["import -", f"main 0 {LOADED_BY[name]}"]


# the probe can fail: a call that loads a watched module shows it
def test_modules_probe_sees_fractions_once_used():
    probe = MODULES_PROBE.replace(
        "import mixent\n",
        "import mixent\nmixent.multiplicity_gibbs_corrected_exact((2,), (1,))\n",
    )
    assert _run_probe(probe, EXACT_ARITHMETIC) == ["import fractions,decimal"]


# every public name but __version__ -> the submodule that defines it
HOME = {
    "DomainError": "errors",
    "OracleSizeError": "errors",
    "ScenarioParseError": "errors",
    "Count": "combinatorics",
    "OccupationVector": "combinatorics",
    "StirlingForm": "combinatorics",
    "binomial": "combinatorics",
    "classical_symbol_states": "combinatorics",
    "log_factorial_exact": "combinatorics",
    "log_factorial_stirling": "combinatorics",
    "multiplicity_bose_approx": "combinatorics",
    "multiplicity_bose_exact": "combinatorics",
    "multiplicity_distinguishable": "combinatorics",
    "multiplicity_gibbs_corrected": "combinatorics",
    "multiplicity_gibbs_corrected_exact": "combinatorics",
    "CountingModel": "statmech",
    "EnsembleSpec": "statmech",
    "EntropyResult": "statmech",
    "LevelSpec": "statmech",
    "entropy_from_levels": "statmech",
    "gibbs_shannon_entropy": "statmech",
    "helmholtz_free_energy": "statmech",
    "ideal_gas_entropy": "statmech",
    "internal_energy": "statmech",
    "log_partition_function": "statmech",
    "occupations": "statmech",
    "partition_function": "statmech",
    "GasCompartment": "mixing",
    "MixingReport": "mixing",
    "MixingScenario": "mixing",
    "SpeciesOverlap": "mixing",
    "Weighting": "mixing",
    "mixing_entropy": "mixing",
    "overlap_weighted_mixing_entropy": "mixing",
    "partition_change_entropy": "mixing",
    "separation_work": "mixing",
    "spin_field_scenario": "mixing",
    "CellSpec": "oracle",
    "EnumerationResult": "oracle",
    "VerificationReport": "oracle",
    "enumerate_assignments": "oracle",
    "enumerate_indistinct": "oracle",
    "verify_counting": "oracle",
    "ScenarioFile": "scenario_io",
    "load_scenario": "scenario_io",
    "parse_scenario": "scenario_io",
    "serialize_scenario": "scenario_io",
}


def test_all_is_the_48_public_names():
    assert len(HOME) == 47
    assert sorted(mixent.__all__) == sorted(["__version__", *HOME])


@pytest.mark.parametrize("name", list(HOME))
def test_public_name_is_the_submodule_object(name):
    module = importlib.import_module(f"mixent.{HOME[name]}")
    assert getattr(mixent, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from mixent import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mixent.__all__)
    assert set(mixent.__all__) <= set(dir(mixent))


# names public in one submodule alone, beyond its HOME names
EXTRAS = {
    "combinatorics": ("DEFAULT_EXACT_LIMIT", "MAX_EXACT_LIMIT"),
    "oracle": ("ASSIGNMENT_GUARD", "INDISTINCT_GUARD", "IdentityCheck", "FIXED_CELL_SUITE"),
}

# imports each submodule named in argv as the CLI does, without reading the
# package first, and prints its sorted __all__ and what its star import binds
ALL_PROBE = """
import importlib, sys
for module in sys.argv[1:]:
    names = importlib.import_module(f"mixent.{module}").__all__
    namespace = {}
    exec(f"from mixent.{module} import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    print(module, ",".join(sorted(names)), ",".join(sorted(bound)))
"""


def test_submodule_all_is_its_home_names_and_extras():
    modules = sorted(set(HOME.values()))
    expected = []
    for module in modules:
        home = [name for name, where in HOME.items() if where == module]
        names = ",".join(sorted([*home, *EXTRAS.get(module, ())]))
        expected.append(f"{module} {names} {names}")
    assert len(modules) == 6
    assert _run_probe(ALL_PROBE, *modules) == expected


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        mixent.nope
    with pytest.raises(ImportError, match="'nope'"):
        exec("from mixent import nope", {})


LAZY_PROBE = """
import pickle
import mixent
print(mixent.oracle.FIXED_CELL_SUITE[0], mixent.mixing.Weighting.COMPLEMENT.value)
level = mixent.LevelSpec(1.5, 3)
scenario = mixent.MixingScenario(
    compartments=(
        mixent.GasCompartment("a", 10, 1.0, 2.0),
        mixent.GasCompartment("b", 20, 3.0, 2.0),
    ),
    overlaps=(mixent.SpeciesOverlap("a", "b", 0.25),),
)
for value in (level, scenario):
    print(type(value).__name__, pickle.loads(pickle.dumps(value)) == value)
"""


def test_fresh_import_resolves_submodules_and_pickles():
    assert _run_probe(LAZY_PROBE) == [
        "(1, 1) complement",
        "LevelSpec True",
        "MixingScenario True",
    ]


NO_NUMPY_PROBE = """
import math, sys
sys.modules["numpy"] = None  # import numpy now fails as if not installed
import mixent
ensemble = mixent.EnsembleSpec(levels=((0.0, 1), (1.0, 2), (2.5, 3)), N=10, T=1.0)
n = mixent.occupations(ensemble)
print(type(n).__name__, len(n), abs(math.fsum(n) - 10) <= 1e-12 * 10)
print(mixent.gibbs_shannon_entropy([0.5, 0.5]) == math.log(2))
"""


def test_package_works_without_numpy():
    # with numpy blocked, occupations() is a tuple summing to N and
    # gibbs_shannon_entropy, which also reads ndarrays, reads a list
    assert _run_probe(NO_NUMPY_PROBE) == ["tuple 3 True", "True"]
