"""Input boundaries: what every public entry point rejects, and how.

Counts are integers, never ``bool``; a number whose conversion to float
overflows, or an ln n! beyond the float range, is a DomainError rather
than a bare OverflowError.  The CLI turns every such rejection into exit
code 1 or 2 with one line on stderr.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixent import (
    CellSpec,
    Count,
    CountingModel,
    EnsembleSpec,
    GasCompartment,
    LevelSpec,
    MixingScenario,
    OccupationVector,
    SpeciesOverlap,
    StirlingForm,
    Weighting,
    binomial,
    classical_symbol_states,
    entropy_from_levels,
    gibbs_shannon_entropy,
    helmholtz_free_energy,
    ideal_gas_entropy,
    internal_energy,
    log_factorial_exact,
    log_factorial_stirling,
    log_partition_function,
    mixing_entropy,
    multiplicity_bose_approx,
    multiplicity_bose_exact,
    multiplicity_distinguishable,
    multiplicity_gibbs_corrected,
    overlap_weighted_mixing_entropy,
    parse_scenario,
    partition_change_entropy,
    partition_function,
    separation_work,
    verify_counting,
)
from mixent import _scenario
from mixent.cli import main
from mixent.errors import DomainError, ScenarioParseError

BIG = 10**400  # beyond the float range
EDGE = 10**308  # fits a float; the sum of two does not
BITS = "must fit a float (at most about 1.8e308), got a 1329-bit integer"
TOTAL = "total particle number must fit a float (at most about 1.8e308), got a"
GIBBS = CountingModel.GIBBS_CORRECTED

# (id, call, the message of the DomainError it raises)
CONTRACT = [
    # bool is not an integer
    ("compartment-N-bool", lambda: GasCompartment("a", True, 1.0, 1.0),
     "N must be an integer, got True"),
    ("level-degeneracy-bool", lambda: LevelSpec(0.0, True),
     "degeneracy must be an integer, got True"),
    ("binomial-bool", lambda: binomial(True, False),
     "N must be an integer, got True"),
    ("occupation-bool", lambda: OccupationVector((True, 2)),
     "occupation number must be an integer, got True"),
    ("ensemble-N-bool", lambda: EnsembleSpec(levels=((0.0, 1),), N=True, T=1.0),
     "N must be an integer, got True"),
    ("compartment-V-bool", lambda: GasCompartment("a", 1, True, 1.0),
     "V must be a real number, got True"),
    ("overlap-bool", lambda: overlap_weighted_mixing_entropy(1.0, True),
     "overlap must be a real number, got True"),
    # an int beyond the float range
    ("binomial-N", lambda: binomial(BIG, 1), f"N {BITS}"),
    ("bose-approx-n", lambda: multiplicity_bose_approx(BIG, 2), f"n {BITS}"),
    ("symbols-n", lambda: classical_symbol_states(BIG, 2), f"n {BITS}"),
    ("bose-exact-g", lambda: multiplicity_bose_exact(5, BIG), f"g {BITS}"),
    ("distinguishable-occupation",
     lambda: multiplicity_distinguishable((BIG,), (1,)),
     f"occupation number {BITS}"),
    # every n_i fits a float, the total of a log-only count does not
    ("distinguishable-total",
     lambda: multiplicity_distinguishable((2**1023, 2**1023), (1, 1), exact_limit=0),
     f"{TOTAL} 1025-bit integer"),
    ("corrected-total",
     lambda: multiplicity_gibbs_corrected((2**1023, 2**1023), (1, 1), exact_limit=0),
     f"{TOTAL} 1025-bit integer"),
    # the Bose count's total is n + g - 1, its cells being (n, g - 1)
    ("bose-exact-total", lambda: multiplicity_bose_exact(2**1023, 2**1023),
     "n + g - 1 must fit a float (at most about 1.8e308), got a 1024-bit integer"),
    ("log-factorial-exact", lambda: log_factorial_exact(BIG), f"n {BITS}"),
    ("log-factorial-method", lambda: StirlingForm.EXACT.log_factorial(BIG),
     f"n {BITS}"),
    ("level-energy", lambda: LevelSpec(BIG, 1), f"level energy {BITS}"),
    ("compartment-V", lambda: GasCompartment("a", 1, BIG, 1.0), f"V {BITS}"),
    ("ideal-gas-V", lambda: ideal_gas_entropy(1, BIG, 1.0, GIBBS), f"V {BITS}"),
    ("ideal-gas-constant",
     lambda: ideal_gas_entropy(1, 1.0, 1.0, GIBBS, constant=BIG),
     f"constant {BITS}"),
    ("separation-work-T", lambda: separation_work(1.0, BIG), f"T {BITS}"),
    ("separation-work-delta", lambda: separation_work(BIG, 1.0), f"delta_S {BITS}"),
    ("overlap", lambda: SpeciesOverlap("a", "b", BIG), f"overlap {BITS}"),
    ("levels-degeneracy",
     lambda: entropy_from_levels(
         EnsembleSpec(levels=(LevelSpec(0.0, BIG),), N=10, T=1.0), GIBBS
     ),
     f"degeneracy {BITS}"),
    # ln n! beyond the float range
    ("log-factorial-overflow", lambda: log_factorial_exact(1e306),
     "ln n! overflows a float at n = 1e+306"),
    ("bose-approx-overflow", lambda: multiplicity_bose_approx(10**306, 2),
     "ln n! overflows a float at n = 1e+306"),
    # a log-only count beyond the float range
    ("symbols-log-overflow", lambda: classical_symbol_states(EDGE, EDGE),
     "ln of the count overflows a float"),
    ("log-only-inf", lambda: Count.log_only(float("inf")),
     "ln of the count overflows a float"),
    # a log-only count is a real number: never bool or text, within the float range
    ("log-only-nan", lambda: Count.log_only(float("nan")), "log_value must not be NaN"),
    ("log-only-int", lambda: Count.log_only(BIG), f"log_value {BITS}"),
    ("log-only-bool", lambda: Count.log_only(True),
     "log_value must be a real number, got True"),
    ("log-only-str", lambda: Count.log_only("x"),
     "log_value must be a real number, got 'x'"),
    ("log-only-none", lambda: Count.log_only(None),
     "log_value must be a real number, got None"),
    # the constructor checks a count as log_only and from_int do
    ("count-str", lambda: Count("x"), "log_value must be a real number, got 'x'"),
    ("count-nan", lambda: Count(float("nan")), "log_value must not be NaN"),
    ("count-inf", lambda: Count(float("inf")), "ln of the count overflows a float"),
    ("count-negative", lambda: Count(1.0, -5), "count must be >= 0, got -5"),
    ("count-bool", lambda: Count(1.0, True), "count must be an integer, got True"),
    ("count-float", lambda: Count(1.0, 2.5), "count must be an integer, got 2.5"),
    ("count-replace", lambda: dataclasses.replace(Count.from_int(3), value=-1),
     "count must be >= 0, got -1"),
    # wrong types
    ("ensemble-levels-scalar", lambda: EnsembleSpec(levels=5.0, N=1, T=1.0),
     "levels must be iterable, got 5.0"),
    ("scenario-compartments-scalar", lambda: MixingScenario(compartments=5),
     "compartments must be iterable, got 5"),
    ("scenario-overlaps-scalar",
     lambda: MixingScenario(compartments=(GasCompartment("a", 1, 1.0, 1.0),), overlaps=3),
     "overlaps must be iterable, got 3"),
    ("scenario-compartment-type",
     lambda: MixingScenario(compartments=(("a", 1, 1.0, 1.0),), final_volume=1.0),
     "compartments must be GasCompartment, got ('a', 1, 1.0, 1.0)"),
    ("distinguishable-occupation-scalar", lambda: multiplicity_distinguishable(5, (1,)),
     "occupation numbers must be iterable, got 5"),
    ("distinguishable-degeneracies-scalar",
     lambda: multiplicity_distinguishable((1,), None),
     "degeneracies must be iterable, got None"),
    ("occupation-vector-scalar", lambda: OccupationVector(5),
     "occupation numbers must be iterable, got 5"),
    ("cell-spec-none", lambda: CellSpec(None), "degeneracies must be iterable, got None"),
    ("verify-cells-scalar", lambda: verify_counting(2, 5),
     "degeneracies must be iterable, got 5"),
    ("ideal-gas-form", lambda: ideal_gas_entropy(1, 1.0, 1.0, GIBBS, "two-term"),
     "unknown stirling form: 'two-term'"),
    # text is not a number, although float() would parse it
    ("log-factorial-str", lambda: StirlingForm.EXACT.log_factorial("3"),
     "n must be a real number, got '3'"),
    ("stirling-bytes", lambda: log_factorial_stirling(b"3"),
     "n must be a real number, got b'3'"),
    ("separation-work-str", lambda: separation_work("1", 1.0),
     "delta_S must be a real number, got '1'"),
    ("separation-work-none", lambda: separation_work(None, 1.0),
     "delta_S must be a real number, got None"),
    # every input fits a float, the result does not
    ("log-partition-sum",
     lambda: log_partition_function(((0.0, EDGE), (0.0, EDGE)), 1.0),
     "the partition sum overflows a float"),
    ("levels-partition-sum",
     lambda: entropy_from_levels(
         EnsembleSpec(levels=((0.0, EDGE), (0.0, EDGE)), N=10, T=1.0), GIBBS
     ),
     "the partition sum overflows a float"),
    ("partition-function", lambda: partition_function(((-1000.0, 1),), 1.0),
     "Z = exp(1000) overflows a float"),
    ("log-partition-shift",
     lambda: log_partition_function(((-1e300, 1),), 1e-300),
     "ln Z overflows a float at T = 1e-300"),
    ("partition-function-shift",
     lambda: partition_function(((-1e300, 1),), 1e-300),
     "ln Z overflows a float at T = 1e-300"),
    ("log-partition-shift-negative",
     lambda: log_partition_function(((1e300, 1),), 1e-300),
     "ln Z overflows a float at T = 1e-300"),
    ("internal-energy",
     lambda: internal_energy(
         EnsembleSpec(levels=((1.9, 1), (1.9, 1)), N=17 * 10**307, T=1.0)
     ),
     "internal energy overflows a float at N = 1.7e+308"),
    ("partition-change-volume",
     lambda: partition_change_entropy(2, 5e-324, 1.0, 2, GIBBS),
     "V / parts underflows to 0 at V = 5e-324, parts = 2"),
    ("scenario-volume-sum",
     lambda: parse_scenario("compartment = a 1 1e308 1.0\ncompartment = b 1 1e308 1.0"),
     "the summed compartment volumes overflow a float"),
    ("mixing-entropy-sum",
     lambda: mixing_entropy(MixingScenario.from_compartments(
         (GasCompartment(s, 10**305, 1e306, 1.0) for s in "abc"),
         model=CountingModel.DISTINGUISHABLE,
     )),
     "entropy overflows a float at N = 3e+305 particles"),
    ("levels-distinguishable-sum",
     lambda: entropy_from_levels(
         EnsembleSpec(levels=((0.0, 1), (0.0, 1)), N=10**306, T=1.0),
         CountingModel.DISTINGUISHABLE,
     ),
     "entropy overflows a float at N = 1e+306 particles"),
    ("separation-work-product", lambda: separation_work(1e10, 1e300),
     "separation work overflows a float at T = 1e+300, delta_S = 1e+10"),
    ("partition-change-work",
     lambda: partition_change_entropy(10**10, 1.0, 1e300, 2, CountingModel.DISTINGUISHABLE),
     "separation work overflows a float at T = 1e+300, delta_S = -6.93147e+09"),
    ("mixing-entropy-density",
     lambda: mixing_entropy(MixingScenario.from_compartments(
         GasCompartment(s, 10**300, 1e-10, 1.0) for s in "ab"
     )),
     "a density n / V overflows a float at N = 2e+300"),
    ("mixing-entropy-compartment-density",
     lambda: mixing_entropy(MixingScenario.from_compartments(
         (GasCompartment("a", 10**10, 1e-300, 1.0), GasCompartment("b", 1, 1e10, 1.0))
     )),
     "a density n / V overflows a float at N = 1e+10"),
    ("mixing-entropy-work",
     lambda: mixing_entropy(MixingScenario.from_compartments(
         GasCompartment(s, 10**10, 1.0, 1e300) for s in "ab"
     )),
     "separation work overflows a float at T = 1e+300, delta_S = 1.38629e+10"),
    ("free-energy",
     lambda: helmholtz_free_energy(
         EnsembleSpec(((0.0, 1), (1.0, 1)), N=10**300, T=1e10), GIBBS
     ),
     "free energy overflows a float at N = 1e+300, T = 1e+10"),
    ("gibbs-shannon-sum", lambda: gibbs_shannon_entropy([1e308, 1e308]),
     "probabilities sum to inf, not 1"),
    # scenario lines whose tokens convert but whose values break physics
    ("scenario-overlap-range",
     lambda: parse_scenario("compartment = a 10 1.0 1.0\noverlap = a b 1.5"),
     "overlap must lie in [0, 1], got 1.5"),
    ("scenario-overlap-self",
     lambda: parse_scenario("compartment = a 10 1.0 1.0\noverlap = a a 0.5"),
     "overlap of species 'a' with itself is fixed at 1"),
    ("scenario-compartment-V",
     lambda: parse_scenario("compartment = a 10 -1.0 1.0"),
     "V must be finite and > 0, got -1.0"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in CONTRACT], ids=[row[0] for row in CONTRACT]
)
def test_rejected_with_domain_error(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_count_limit_is_where_float_conversion_overflows():
    limit = 2**1024 - 2**970
    assert float(limit - 1) == 1.7976931348623157e308
    with pytest.raises(OverflowError):
        float(limit)
    assert GasCompartment("a", limit - 1, 1.0, 1.0).N == limit - 1
    with pytest.raises(DomainError, match="1024-bit integer"):
        GasCompartment("a", limit, 1.0, 1.0)


def test_int_and_float_likes_are_converted():
    np = pytest.importorskip("numpy")
    c = GasCompartment("a", np.int64(10), np.float32(0.5), np.float64(2.0))
    assert c == GasCompartment("a", 10, 0.5, 2.0)
    assert (type(c.N), type(c.V), type(c.T)) == (int, float, float)
    level = LevelSpec(np.float32(1.5), np.int32(3))
    assert level == LevelSpec(1.5, 3)
    assert (type(level.energy), type(level.degeneracy)) == (float, int)
    assert SpeciesOverlap("a", "b", np.float32(0.25)).overlap == 0.25
    assert binomial(np.int64(10), np.uint8(3)).value == 120


def run(capsys, argv):
    """main()'s exit code, with argparse's SystemExit read as one."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DIGITS = "1" + "0" * 400
SCENARIO = Path(__file__).resolve().parent.parent / "scenarios/distinct_half.scenario"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["count", "binomial", DIGITS, "1"], "N"),
        (["count", "bose-approx", DIGITS, "2"], "n"),
        (["count", "symbols", DIGITS, "2"], "n"),
        (["count", "bose", "5", DIGITS], "g"),
        (["entropy", "--N", "10", "--T", "1", "--levels", f"0:{DIGITS},1:1"],
         "degeneracy"),
    ],
)
def test_cli_over_range_int_names_the_argument(capsys, argv, name):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {name} {BITS}\n"


def test_cli_partition_sum_overflow_is_one_error_line(capsys):
    levels = f"0:{EDGE},0:{EDGE}"
    argv = ["entropy", "--N", "10", "--T", "1", "--levels", levels]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: the partition sum overflows a float\n"


def test_cli_separation_work_overflow_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "hot.scenario"
    path.write_text(
        "compartment = a 10000000000 1.0 1e300\n"
        "compartment = b 10000000000 1.0 1e300\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["mix", "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert err == (
        "error: separation work overflows a float at T = 1e+300, delta_S = 1.38629e+10\n"
    )


# The first three are ints, which the size-driven slots below leave out
HUGE = [DIGITS, "-" + DIGITS, str(EDGE)]
BAD_VALUES = HUGE + ["inf", "nan", "0", "-1"]

# Each template takes one value, in one or two places.  Left out on
# purpose: huge values for sweep-overlap --points and oracle-check --max-n,
# which are valid requests for that much work (every grid point, every N
# up to the size guard).
ARGV_SLOTS = [
    "count binomial {} 2",
    "count binomial 5 {}",
    "count bose {} 2",
    "count bose 3 {}",
    "count bose-approx {} 2",
    "count bose-approx 3 {}",
    "count symbols {} 2",
    "count symbols 3 {}",
    "count multiplicity --occ {},1 --deg 2,3",
    "count multiplicity --occ 2,1 --deg {},3",
    "entropy --N {} --T 1 --V 1",
    "entropy --N 10 --T {} --V 1",
    "entropy --N 10 --T 1 --V {}",
    "entropy --N 10 --T 1 --V 1 --constant {}",
    "entropy --N {} --T 1 --levels 0:1,1:2",
    "entropy --N 10 --T {} --levels 0:1,1:2",
    "entropy --N 10 --T 1 --levels {}:1,1:2",
    "entropy --N 10 --T 1 --levels 0:{},1:2",
    "entropy --N 10 --T 1 --levels 0:{0},0:{0}",
]
SCENARIO_SLOTS = [
    "compartment = a {} 1.0 1.0\ncompartment = b 10 1.0 1.0\n",
    "compartment = a 10 {} 1.0\ncompartment = b 10 1.0 1.0\n",
    "compartment = a 10 {} 1.0\ncompartment = b 10 {} 1.0\n",
    "compartment = a 10 1.0 {}\ncompartment = b 10 1.0 {}\n",
    "compartment = a 10 1.0 1.0\ncompartment = b 10 1.0 1.0\noverlap = a b {}\n",
    "final_volume = {}\ncompartment = a 10 1.0 1.0\n",
]


def _sweep_cases():
    for template in ARGV_SLOTS:
        for value in BAD_VALUES:
            yield template.format(value).split(), None
    for template in SCENARIO_SLOTS:
        for value in BAD_VALUES:
            text = template.format(value, value)
            yield ["mix", "--scenario"], text
            yield ["sweep-overlap", "--points", "3", "--scenario"], text
    for value in BAD_VALUES[len(HUGE):]:
        yield ["sweep-overlap", "--scenario", str(SCENARIO), "--points", value], None
        yield ["oracle-check", "--max-n", value], None


def test_cli_exit_code_contract(capsys, tmp_path, monkeypatch):
    """Adversarial numbers in every numeric slot: exit 0, 1 or 2, one line."""
    monkeypatch.delenv("MIXENT_KB", raising=False)
    path = tmp_path / "sweep.scenario"
    for argv, text in _sweep_cases():
        if text is not None:
            path.write_text(text, encoding="utf-8")
            argv = argv + [str(path)]
        code, out, err = run(capsys, argv)
        assert code in (0, 1, 2), argv
        assert err.count("\n") <= 1, (argv, err)
        assert (code == 0) == (err == ""), (argv, err)


SCENARIO_TEXTS = [
    path.read_text(encoding="utf-8")
    for path in sorted(SCENARIO.parent.glob("*.scenario"))
]
# the characters the grammar reads, and any other
_EDIT_CHARS = st.one_of(
    st.sampled_from("0123456789.-+eE=# \t\nabinf_"), st.characters(codec="utf-8")
)


@st.composite
def _mutated_scenarios(draw):
    """A committed scenario text after 1-4 edits: insert, delete or replace
    characters, duplicate a line, or swap two lines."""
    text = draw(st.sampled_from(SCENARIO_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "duplicate", "swap"]))
        if kind in ("duplicate", "swap"):
            lines = text.split("\n")
            i, j = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            if kind == "duplicate":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
            continue
        start = draw(st.integers(0, len(text)))
        stop = start if kind == "insert" else draw(st.integers(start, min(len(text), start + 8)))
        new = "" if kind == "delete" else draw(st.text(_EDIT_CHARS, min_size=1, max_size=4))
        text = text[:start] + new + text[stop:]
    return text


# hypothesis runs the body once per example, so no function-scoped fixture
@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(text=_mutated_scenarios())
def test_mutated_scenario_files_keep_the_exit_code_contract(text):
    """Structural edits of real scenario files: exit 0, 1 or 2, one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "mutated.scenario")
        path.write_text(text, encoding="utf-8", newline="")
        for argv in (["mix"], ["mix", "--format", "json"], ["sweep-overlap", "--points", "3"]):
            _assert_exit_code_contract([*argv, "--scenario", str(path)], text)


# The CLI runs the scenario core on its plain records; the library runs
# the same core under the public dataclasses.  Both paths must give the
# same bits, or the same exception type and message, on every input.
GRIDS = [(None,), *([i / (n - 1) for i in range(n)] for n in (2, 3, 11, 101))]


def _outcome(build, text, grid):
    """The rows of plain numbers (S_initial, S_final, delta_S, work, q) for
    ``text`` at each grid q, or the exception type and message, as a repr
    (which tells -0.0 from 0.0 and writes every float exactly)."""
    try:
        return repr(build(text, grid))
    except (DomainError, ScenarioParseError) as exc:
        return repr((type(exc), str(exc)))


def _core_rows(text, grid):
    """The CLI's path: the core parser's plain records, then _reports."""
    _, scenario = _scenario.parse(text, "x.scenario", "x")
    return [row[1:] for row in _scenario._reports(scenario, grid)]


def _public_rows(text, grid):
    """The library's path: parse_scenario's public objects, then
    mixing_entropy for the file's own overlaps, or _reports over a grid."""
    scenario = parse_scenario(text, source="x.scenario", default_id="x").scenario
    if grid == (None,):
        r = mixing_entropy(scenario)
        return [(r.S_initial.S, r.S_final.S, r.delta_S, r.separation_work, r.overlap_applied)]
    return [row[1:] for row in _scenario._reports(scenario, grid)]


def _assert_paths_agree(text):
    for grid in GRIDS:
        core = _outcome(_core_rows, text, grid)
        assert core == _outcome(_public_rows, text, grid), (text, grid)


@pytest.mark.parametrize(
    "text", SCENARIO_TEXTS, ids=[p.stem for p in sorted(SCENARIO.parent.glob("*.scenario"))]
)
def test_core_and_public_paths_agree_on_shipped_scenarios(text):
    _assert_paths_agree(text)
    assert "Error" not in _outcome(_core_rows, text, (None,))


def test_core_and_public_paths_agree_at_the_value_slots():
    for template in SCENARIO_SLOTS:
        for value in BAD_VALUES + ["0.5", "1e-300", "1e300"]:
            _assert_paths_agree(template.format(value, value))


def _seeded_texts(rng, model, form, weighting):
    """Scenario texts under one model, form and weighting: one to three
    species, three of them at times with unequal overlaps, and at times a
    final volume off the summed one."""
    for _ in range(4):
        names = [f"sp{k}" for k in range(rng.randint(1, 3))]
        T = rng.uniform(0.1, 10.0)
        lines = [f"model = {model.value}", f"stirling_form = {form.value}"]
        lines.append(f"weighting = {weighting.value}")
        volume = 0.0
        for i in range(rng.randint(len(names), 8)):
            V = rng.uniform(0.05, 8.0)
            volume += V
            name = names[i] if i < len(names) else rng.choice(names)
            lines.append(f"compartment = {name} {rng.randint(1, 10**6)} {V!r} {T!r}")
        q = rng.random()
        for a, b in itertools.combinations(names, 2):
            lines.append(f"overlap = {a} {b} {rng.choice([q, rng.random()])!r}")
        if rng.random() < 0.3:
            lines.append(f"final_volume = {volume * rng.choice([1.0, 1.5])!r}")
        yield "\n".join(lines) + "\n"


@pytest.mark.parametrize("model", list(CountingModel))
@pytest.mark.parametrize("form", list(StirlingForm))
@pytest.mark.parametrize("weighting", list(Weighting))
def test_core_and_public_paths_agree_under_every_model_form_and_weighting(
    model, form, weighting
):
    rng = random.Random(f"3201 {model.value} {form.value} {weighting.value}")
    for text in _seeded_texts(rng, model, form, weighting):
        _assert_paths_agree(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(text=_mutated_scenarios())
def test_core_and_public_paths_agree_on_mutated_scenarios(text):
    _assert_paths_agree(text)


def _main_output(argv):
    """main(argv) in-process: its code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_exit_code_contract(argv, context):
    """main(argv) in-process returns 0, 1 or 2, with no stderr on 0 and one
    line otherwise; an exception out of main() fails the property.  Returns
    the code."""
    code, _, err = _main_output(argv)
    assert code in (0, 1, 2), (argv, context)
    assert "Traceback" not in err, (argv, context)
    if code == 0:
        assert err == "", (argv, context, err)
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, context, err)
    return code


# ints as a command line gives them: small and signed, either side of the
# exact-count limit, beyond 64 bits, at the float range's edge, and with
# about as many digits as int() reads (the interpreter's 4,300-digit limit)
_INT_TEXT = st.one_of(
    st.integers(-3, 60).map(str),
    st.integers(4000, 6000).map(str),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([2**53 + 1, 2**1023, 2**1024, EDGE, -EDGE]).map(str),
    st.integers(4295, 4305).map(lambda digits: "1" + "0" * (digits - 1)),
)
_FLOAT_TEXT = st.one_of(
    st.floats(1e-3, 1e3).map(repr),
    st.floats().map(repr),
    st.sampled_from(["1e-320", "1e308", "-0.0", "1_0.5", " 2 "]),
    # negative spellings that argparse alone takes for option strings
    st.sampled_from(["-1e-05", "-1E+3", "-.5", "-inf", "-Infinity", "-nan"]),
)
# an int slot also gets floats, which argparse rejects
_NUMBER_TEXT = _INT_TEXT | _FLOAT_TEXT
_LEVELS_TEXT = st.one_of(
    st.lists(
        st.tuples(_FLOAT_TEXT, st.none() | _INT_TEXT).map(
            lambda level: level[0] if level[1] is None else ":".join(level)
        ),
        min_size=1,
        max_size=6,
    ).map(",".join),
    st.text(st.sampled_from("0123456789.:,-+e inf"), max_size=12),
)
# MIXENT_KB unset (None), one of its values in any case, or other text;
# an environment value holds no NUL and no lone surrogate
_KB = st.one_of(
    st.none(),
    st.sampled_from(["si", "SI", " reduced ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4),
)


@st.composite
def _count_argv(draw):
    kind = draw(st.sampled_from(["binomial", "bose", "bose-approx", "symbols", "multiplicity"]))
    if kind != "multiplicity":
        return ["count", kind, draw(_NUMBER_TEXT), draw(_NUMBER_TEXT)]
    cells = draw(st.integers(1, 4))
    occ, deg = (",".join(draw(_NUMBER_TEXT) for _ in range(cells)) for _ in range(2))
    return ["count", kind, "--occ", occ, "--deg", deg]


@st.composite
def _near_str_limit_argv(draw):
    """An exact count of about 4,300 digits: g^n for g = 9 or 10."""
    n, g = str(draw(st.integers(4290, 4310))), draw(st.sampled_from(["9", "10"]))
    if draw(st.booleans()):
        return ["count", "symbols", n, g]
    return ["count", "multiplicity", "--occ", n, "--deg", g]


@st.composite
def _entropy_argv(draw):
    argv = ["entropy", "--N", draw(_INT_TEXT), "--T", draw(_FLOAT_TEXT)]
    gas = draw(st.sampled_from(["V", "V", "levels", "levels", "both"]))
    if gas != "levels":
        argv += ["--V", draw(_FLOAT_TEXT)]
    if gas != "V":
        argv += ["--levels", draw(_LEVELS_TEXT)]
    for flag, values in (
        ("--model", [m.value for m in CountingModel]),
        ("--stirling-form", [f.value for f in StirlingForm]),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from([*values, "bogus"]))]
    if draw(st.booleans()):
        argv += ["--constant", draw(_FLOAT_TEXT)]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=_count_argv() | _near_str_limit_argv() | _entropy_argv(), kb=_KB)
def test_generated_count_and_entropy_argv_keep_the_exit_code_contract(argv, kb):
    """Generated numbers in every count and entropy slot, under any MIXENT_KB."""
    with mock.patch.dict(os.environ):
        os.environ.pop("MIXENT_KB", None)
        if kb is not None:
            os.environ["MIXENT_KB"] = kb
        _assert_exit_code_contract(argv, kb)


# the number options of entropy; _entropy_argv draws their values from
# _INT_TEXT and _FLOAT_TEXT
_NUMBER_FLAGS = frozenset(["--N", "--T", "--V", "--constant"])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(argv=_entropy_argv())
def test_a_spaced_number_reads_as_after_equals(argv):
    """A drawn number after --N, --T, --V or --constant gives the same exit
    code, stdout and stderr as the same number written after '='."""
    pairs = zip(argv[1::2], argv[2::2])  # every argument after entropy is a pair
    joined = ["entropy"]
    for flag, value in pairs:
        joined += [f"{flag}={value}"] if flag in _NUMBER_FLAGS else [flag, value]
    with mock.patch.dict(os.environ):
        os.environ.pop("MIXENT_KB", None)
        assert _main_output(argv) == _main_output(joined), argv


# numbers at each scenario slot's domain guards; ordinary numbers fill most
# slots, so that some files evaluate
_GUARD_N = ["0", "-1", str(EDGE), str(2**1024), DIGITS]
_GUARD_FLOAT = ["0", "-0.0", "-1", "5e-324", "1e308", "1.7976931348623157e308", "inf", "nan"]
_GUARD_Q = ["-0.0", "1.0000000000000002", "nan"]


def _at_guard(draw, guards, ordinary):
    """One of ``guards`` one time in eight, else a draw of ``ordinary``."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(guards))
    return draw(ordinary)


@st.composite
def _guarded_scenarios(draw):
    """Well-formed scenario text with numbers at the domain guards: one to
    three species over up to four compartments, at times one at another T;
    a final volume left out, the summed volume, that sum off by 1e-9
    relative, or a guard; and overlap rows between held species only,
    three species at unequal overlaps."""
    lines = [
        f"{key} = {draw(st.sampled_from(list(enum))).value}"
        for key, enum in (
            ("model", CountingModel),
            ("stirling_form", StirlingForm),
            ("weighting", Weighting),
        )
        if draw(st.booleans())
    ]
    species = ["a", "b", "c"][: draw(st.integers(1, 3))]
    T = draw(st.floats(0.1, 10.0))
    volume = 0.0
    for i in range(draw(st.integers(len(species), 4))):
        name = species[i] if i < len(species) else draw(st.sampled_from(species))
        N = _at_guard(draw, _GUARD_N, st.integers(1, 10**6).map(str))
        V = _at_guard(draw, _GUARD_FLOAT, st.floats(0.05, 8.0).map(repr))
        t = _at_guard(draw, [repr(2.0 * T), *_GUARD_FLOAT], st.just(repr(T)))
        volume += float(V)
        lines.append(f"compartment = {name} {N} {V} {t}")
    off = repr(volume * (1.0 + 1e-9))
    final = _at_guard(draw, [off, *_GUARD_FLOAT], st.sampled_from([None, repr(volume)]))
    if final is not None:
        lines.append(f"final_volume = {final}")
    for a, b in itertools.combinations(species, 2):
        if draw(st.integers(0, 3)):  # a pair left out has overlap 0
            q = _at_guard(draw, _GUARD_Q, st.floats(0.0, 1.0).map(repr))
            lines.append(f"overlap = {a} {b} {q}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text=_guarded_scenarios())
def test_guarded_scenario_files_exit_0_or_1_and_paths_agree(text):
    """Numbers at the domain guards in well-formed scenario files: mix,
    mix --format json and sweep-overlap --points 3 exit 0 or 1 (never 2,
    a parse error) under the contract, and the CLI's and the library's
    paths agree."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "guarded.scenario")
        path.write_text(text, encoding="utf-8")
        for argv in (["mix"], ["mix", "--format", "json"], ["sweep-overlap", "--points", "3"]):
            argv = [*argv, "--scenario", str(path)]
            assert _assert_exit_code_contract(argv, text) != 2, (argv, text)
    _assert_paths_agree(text)
