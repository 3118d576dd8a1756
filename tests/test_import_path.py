"""What `import mixent` and each CLI subcommand load, and the public surface.

numpy, fractions and decimal stay off the import path, and so do typing
and pathlib.  `import mixent` loads no submodule, and each subcommand
loads only the modules it runs: `mix` and `sweep-overlap` run the
scenario core alone, without dataclasses.
The package's names resolve lazily to the same objects as before.

Each import check runs in a fresh interpreter, because this test process
has already imported numpy and every mixent module.  One interpreter per
subcommand watches every module the checks ask about, and each check
reads its own modules from that run.
"""

from __future__ import annotations

import ast
import functools
import gc
import importlib
import inspect
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mixent
from mixent import cli

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


def _env() -> dict[str, str]:
    """This environment, with ``src`` first on PYTHONPATH and reduced units."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("MIXENT_KB", None)
    return env


def _run_probe(script: str, *args: str, flags: tuple[str, ...] = ()) -> list[str]:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *args],
        capture_output=True,
        text=True,
        env=_env(),
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
# mixent's submodules beyond the parser's (cli, errors, _forms, _check),
# and json
FOOTPRINT = (
    "mixent._scenario,mixent.mixing,mixent.scenario_io,mixent.oracle,"
    "mixent.combinatorics,mixent.statmech,json"
)
# subcommand -> the watched modules it loads, in FOOTPRINT order
LOADED_BY = {
    "count-binomial": "mixent.combinatorics",
    "count-multiplicity": "mixent.combinatorics",
    "entropy-V": "mixent.statmech",
    "entropy-levels": "mixent.statmech",
    "mix-csv": "mixent._scenario",
    "mix-json": "mixent._scenario,json",
    "sweep-overlap": "mixent._scenario",
    "oracle-check": "mixent.oracle,mixent.combinatorics",
}
# dataclasses imports inspect, and inspect about ten more modules; the
# scenario subcommands load neither, the others load both
DATACLASSES = "dataclasses,inspect"
SCENARIO_SUBCOMMANDS = ("mix-csv", "mix-json", "sweep-overlap")


@functools.cache
def _probe(name: str | None) -> tuple[str, ...]:
    """The probe's lines for one subcommand (None: bare import), watching
    every module the tests below ask about: one interpreter per subcommand."""
    argv = SUBCOMMANDS[name] if name else ()
    watched = f"numpy,{EXACT_ARITHMETIC},{FOOTPRINT},{DATACLASSES}"
    return tuple(_run_probe(MODULES_PROBE, watched, *argv))


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


# count, entropy and oracle-check build dataclasses, which shows the probe
# sees them once loaded
@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_only_the_scenario_subcommands_skip_dataclasses(name):
    loaded = "-" if name in SCENARIO_SUBCOMMANDS else DATACLASSES
    assert _seen(name, DATACLASSES) == ["import -", f"main 0 {loaded}"]


# imports the module argv[1] names and prints which of the modules named in
# argv[2] are loaded ("-" for none)
IMPORT_PROBE = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(",".join(m for m in sys.argv[2].split(",") if m in sys.modules) or "-")
"""


# the library apart from the CLI: mixing needs only the counting vocabulary
# of _forms, and statmech nothing of combinatorics; the CLI module and the
# scenario core need no dataclasses and no public scenario module; the
# oracle, which counts with combinatorics, shows that the probe sees a
# loaded module
@pytest.mark.parametrize(
    "module, watched, loaded",
    [
        ("mixent.mixing", "mixent.combinatorics,mixent.statmech", "-"),
        ("mixent.statmech", "mixent.combinatorics", "-"),
        ("mixent.cli", f"{DATACLASSES},mixent._scenario", "-"),
        ("mixent._scenario", f"{DATACLASSES},mixent.mixing,mixent.scenario_io", "-"),
        ("mixent.oracle", "mixent.combinatorics,mixent.statmech", "mixent.combinatorics"),
    ],
    ids=["mixing", "statmech", "cli", "_scenario", "oracle"],
)
def test_module_import_loads_only_what_it_needs(module, watched, loaded):
    assert _run_probe(IMPORT_PROBE, module, watched) == [loaded]


# site may load typing and pathlib before mixent does (a .pth file that
# imports them, as certifi's does), so these probes run under -S, which
# skips site; PYTHONPATH still finds src
TYPING_PATHLIB = "typing,pathlib"
SUBMODULES = sorted(f"mixent.{m.name}" for m in pkgutil.iter_modules(mixent.__path__))


@pytest.mark.parametrize("name", [None, *SUBCOMMANDS])
def test_import_and_subcommand_load_no_typing_or_pathlib(name):
    argv = SUBCOMMANDS[name] if name else ()
    expected = ["import -", "main 0 -"] if name else ["import -"]
    assert _run_probe(MODULES_PROBE, TYPING_PATHLIB, *argv, flags=("-S",)) == expected


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_import_loads_no_typing_or_pathlib(module):
    assert _run_probe(IMPORT_PROBE, module, TYPING_PATHLIB, flags=("-S",)) == ["-"]


# the probe can fail: a call that loads a watched module shows it
def test_modules_probe_sees_fractions_once_used():
    probe = MODULES_PROBE.replace(
        "import mixent\n",
        "import mixent\nmixent.multiplicity_gibbs_corrected_exact((2,), (1,))\n",
    )
    assert _run_probe(probe, EXACT_ARITHMETIC) == ["import fractions,decimal"]


# `python -m mixent.cli` runs cli.py's `__main__` block, `sys.exit(_entry())`,
# which in-process tests never reach: the exit status, stdout to the byte,
# one stderr line
@pytest.mark.parametrize(
    "argv, code",
    [
        (("mix", "--scenario", "scenarios/distinct_full.scenario"), 0),
        (("entropy", "--N", "10", "--T", "1", "--V", "-1"), 1),
        (("count", "frobnicate", "1", "2"), 2),
    ],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_python_m_mixent_cli(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "mixent.cli", *argv],
        capture_output=True,
        cwd=SCENARIO.parents[1],
        env=_env(),
        timeout=60,
    )
    assert proc.returncode == code
    if code == 0:
        golden = Path(__file__).resolve().parent / "golden" / "distinct_full.mix.csv"
        assert (proc.stdout, proc.stderr) == (golden.read_bytes(), b"")
    else:
        assert proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
        assert b"Traceback" not in proc.stderr


# site imports sitecustomize from PYTHONPATH; its atexit hook runs after the
# process's call has returned
FREEZE_HOOK = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
"""


def test_python_m_mixent_cli_exits_with_the_gc_frozen(tmp_path):
    # the finalizer's collections skip frozen objects; atexit still runs and
    # a block-buffered stdout is still flushed
    (tmp_path / "sitecustomize.py").write_text(FREEZE_HOOK, encoding="utf-8")
    env = _env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mixent.cli", "mix", "--scenario",
         "scenarios/distinct_full.scenario"],
        capture_output=True,
        cwd=SCENARIO.parents[1],
        env=env,
        timeout=60,
    )
    golden = Path(__file__).resolve().parent / "golden" / "distinct_full.mix.csv"
    assert (proc.returncode, proc.stderr) == (0, b"frozen at exit: True\n")
    assert proc.stdout == golden.read_bytes()


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_main_in_process_leaves_the_gc_unfrozen(name, capsys, monkeypatch):
    monkeypatch.delenv("MIXENT_KB", raising=False)
    frozen = gc.get_freeze_count()
    assert cli.main(list(SUBCOMMANDS[name])) == 0
    assert gc.get_freeze_count() == frozen


def test_console_script_is_the_main_block_entry():
    # the installed `mixent` and `python -m mixent.cli` call the same function
    tomllib = pytest.importorskip("tomllib")
    with open(SCENARIO.parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    [block] = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    [statement] = block.body
    [entry] = statement.value.args
    assert ast.unparse(statement.value.func) == "sys.exit"
    assert scripts == {"mixent": f"mixent.cli:{ast.unparse(entry.func)}"}
    assert not entry.args and not entry.keywords


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


def test_public_name_names_its_home_as_its_module():
    # StirlingForm and CountingModel are defined in _forms, EntropyResult in
    # _result, Weighting and separation_work in _scenario
    wrong = {
        name: value.__module__
        for name in HOME
        if (value := getattr(mixent, name)).__module__ != f"mixent.{HOME[name]}"
    }
    assert wrong == {}


# getsource reads a moved class's lines in its public home's file, where
# the class is not: it finds none (OSError), never another class's lines
# (3.13 read them at _forms' line numbers)
@pytest.mark.parametrize(
    "name", ["StirlingForm", "CountingModel", "EntropyResult", "Weighting"]
)
def test_getsource_of_a_moved_class_is_its_own_or_none(name):
    try:
        source = inspect.getsource(getattr(mixent, name))
    except OSError:
        return
    assert re.match(rf"(@.*\n)*class {name}\b", source)


# pickled at protocols 0 and 5 by the code before StirlingForm, CountingModel
# and EntropyResult moved to _forms: pickles name each class's public home
PICKLED_BEFORE_THE_MOVE = {
    "stirling-form": (
        b"cmixent.combinatorics\nStirlingForm\np0\n(Vexact\np1\ntp2\nRp3\n.",
        bytes.fromhex(
            "80059535000000000000008c146d6978656e742e636f6d62696e61746f72696373948c0c"
            "537469726c696e67466f726d9493948c05657861637494859452942e"
        ),
    ),
    "counting-model": (
        b"cmixent.statmech\nCountingModel\np0\n(Vbose-approximate\np1\ntp2\nRp3\n.",
        bytes.fromhex(
            "8005953c000000000000008c0f6d6978656e742e737461746d656368948c0d436f756e74"
            "696e674d6f64656c9493948c10626f73652d617070726f78696d61746594859452942e"
        ),
    ),
    "entropy-result": (
        b"ccopy_reg\n_reconstructor\np0\n(cmixent.statmech\nEntropyResult\np1\n"
        b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVS\np6\nF1.5\nsVper_particle\n"
        b"p7\nF0.125\nsVmodel\np8\ncmixent.statmech\nCountingModel\np9\n"
        b"(Vgibbs-corrected\np10\ntp11\nRp12\nsVstirling_form\np13\n"
        b"cmixent.combinatorics\nStirlingForm\np14\n(Vexact\np15\ntp16\nRp17\nsb.",
        bytes.fromhex(
            "800595c8000000000000008c0f6d6978656e742e737461746d656368948c0d456e74726f"
            "7079526573756c749493942981947d94288c015394473ff80000000000008c0c7065725f"
            "7061727469636c6594473fc00000000000008c056d6f64656c9468008c0d436f756e7469"
            "6e674d6f64656c9493948c0f67696262732d636f7272656374656494859452948c0d7374"
            "69726c696e675f666f726d948c146d6978656e742e636f6d62696e61746f72696373948c"
            "0c537469726c696e67466f726d9493948c056578616374948594529475622e"
        ),
    ),
    "scenario": (
        b"ccopy_reg\n_reconstructor\np0\n(cmixent.mixing\nMixingScenario\np1\n"
        b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVcompartments\np6\n(g0\n"
        b"(cmixent.mixing\nGasCompartment\np7\ng2\nNtp8\nRp9\n(lp10\nVa\np11\naI10\n"
        b"aF1.0\naF2.0\nabg0\n(g7\ng2\nNtp12\nRp13\n(lp14\nVb\np15\naI20\naF3.0\n"
        b"aF2.0\nabtp16\nsVfinal_volume\np17\nF4.0\nsVoverlaps\np18\n(g0\n"
        b"(cmixent.mixing\nSpeciesOverlap\np19\ng2\nNtp20\nRp21\n(lp22\ng11\nag15\n"
        b"aF0.25\nabtp23\nsVmodel\np24\ncmixent.statmech\nCountingModel\np25\n"
        b"(Vgibbs-corrected\np26\ntp27\nRp28\nsVstirling_form\np29\n"
        b"cmixent.combinatorics\nStirlingForm\np30\n(Vtwo-term\np31\ntp32\nRp33\n"
        b"sVweighting\np34\ncmixent.mixing\nWeighting\np35\n(Vcomplement\np36\n"
        b"tp37\nRp38\nsV_overlap_table\np39\n(dp40\n(g11\ng15\ntp41\nF0.25\nssb.",
        bytes.fromhex(
            "800595bc010000000000008c0d6d6978656e742e6d6978696e67948c0e4d6978696e6753"
            "63656e6172696f9493942981947d94288c0c636f6d706172746d656e74739468008c0e47"
            "6173436f6d706172746d656e749493942981945d94288c0161944b0a473ff00000000000"
            "00474000000000000000656268072981945d94288c0162944b1447400800000000000047"
            "4000000000000000656286948c0c66696e616c5f766f6c756d6594474010000000000000"
            "8c086f7665726c6170739468008c0e537065636965734f7665726c61709493942981945d"
            "9428680a680d473fd0000000000000656285948c056d6f64656c948c0f6d6978656e742e"
            "737461746d656368948c0d436f756e74696e674d6f64656c9493948c0f67696262732d63"
            "6f7272656374656494859452948c0d737469726c696e675f666f726d948c146d6978656e"
            "742e636f6d62696e61746f72696373948c0c537469726c696e67466f726d9493948c0874"
            "776f2d7465726d94859452948c09776569676874696e679468008c09576569676874696e"
            "679493948c0a636f6d706c656d656e7494859452948c0e5f6f7665726c61705f7461626c"
            "65947d94680a680d8694473fd00000000000007375622e"
        ),
    ),
}


def _pickled_value(name: str) -> object:
    if name == "stirling-form":
        return mixent.StirlingForm.EXACT
    if name == "counting-model":
        return mixent.CountingModel.BOSE_APPROXIMATE
    if name == "entropy-result":
        return mixent.EntropyResult(
            S=1.5,
            per_particle=0.125,
            model=mixent.CountingModel.GIBBS_CORRECTED,
            stirling_form=mixent.StirlingForm.EXACT,
        )
    return mixent.MixingScenario(
        compartments=(
            mixent.GasCompartment("a", 10, 1.0, 2.0),
            mixent.GasCompartment("b", 20, 3.0, 2.0),
        ),
        overlaps=(mixent.SpeciesOverlap("a", "b", 0.25),),
    )


@pytest.mark.parametrize("protocol", [0, 5])
@pytest.mark.parametrize("name", list(PICKLED_BEFORE_THE_MOVE))
def test_pickle_bytes_are_those_before_the_move(name, protocol):
    value = _pickled_value(name)
    data = PICKLED_BEFORE_THE_MOVE[name][protocol == 5]
    assert pickle.dumps(value, protocol) == data
    assert pickle.loads(data) == value


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


HINTS_PROBE = """
import sys, typing
import mixent.mixing as mixing
print(",".join(m for m in ("mixent.combinatorics", "mixent.statmech") if m in sys.modules) or "-")
for cls in (mixing.EntropyResult, mixing.MixingReport):
    hints = typing.get_type_hints(cls)
    print(cls.__name__, " ".join(f"{k}:{getattr(v, '__name__', v)}" for k, v in hints.items()))
"""


# the moved classes' annotations are objects, not names to look up in a
# public home that mixing does not load
def test_type_hints_resolve_with_only_mixing_loaded():
    assert _run_probe(HINTS_PROBE) == [
        "-",
        "EntropyResult S:float per_particle:float model:CountingModel "
        "stirling_form:StirlingForm",
        "MixingReport S_initial:EntropyResult S_final:EntropyResult "
        "delta_S:float separation_work:float overlap_applied:float",
    ]


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
