"""Acceptance gate: eleven numbered criteria, one test (and one verbose
pass/fail line) each.

Every pinned expected value below was either derived by brute-force
enumeration (see mixent.oracle and the inline recomputations), or is a
closed-form constant like N ln 2 evaluated independently of the library
code under test.  Tolerances are stated per criterion.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import mixent.combinatorics
from mixent.cli import main
from mixent.combinatorics import (
    Count,
    StirlingForm,
    multiplicity_bose_exact,
    multiplicity_gibbs_corrected,
)
from mixent.mixing import (
    GasCompartment,
    MixingScenario,
    SpeciesOverlap,
    mixing_entropy,
    partition_change_entropy,
    spin_field_scenario,
)
from mixent.statmech import (
    CountingModel,
    EnsembleSpec,
    LevelSpec,
    entropy_from_levels,
    ideal_gas_entropy,
    internal_energy,
    log_partition_function,
    occupations,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
LN2 = math.log(2)


def report(capsys, num: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"\n[{status}] criterion {num:02d}: {description}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def test_criterion_01_wall_insertion_distinguishable(capsys):
    """Inserting a wall halving a 1000-particle gas costs N ln 2 under
    distinguishable counting."""
    failures = []
    r = partition_change_entropy(1000, 1.0, 1.0, 2, CountingModel.DISTINGUISHABLE)
    expected = -1000 * LN2  # -693.147180560
    if not abs(r.delta_S - expected) <= 1e-9:
        failures.append(f"delta_S = {r.delta_S!r}, expected {expected!r} +- 1e-9")
    report(capsys, 1, "wall insertion, distinguishable: delta_S = -693.147180560 +- 1e-9",
           failures)


def test_criterion_02_wall_insertion_corrected_two_term(capsys):
    """The same insertion is a non-event under corrected counting with
    two-term Stirling."""
    failures = []
    r = partition_change_entropy(1000, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED)
    if not abs(r.delta_S) < 1e-9:
        failures.append(f"|delta_S| = {abs(r.delta_S)!r}, expected < 1e-9")
    report(capsys, 2, "wall insertion, corrected two-term: |delta_S| < 1e-9", failures)


def test_criterion_03_exact_factorial_residual(capsys):
    """Exact factorials expose the positive finite-size residual
    N ln 2 - ln C(N, N/2), asymptotically (1/2) ln(pi N / 2)."""
    failures = []
    for N in (100, 1000, 10000):
        r = partition_change_entropy(
            N, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
        )
        # independent big-integer reference
        reference = N * LN2 - math.log(math.comb(N, N // 2))
        asymptote = 0.5 * math.log(math.pi * N / 2)
        if not r.delta_S > 0:
            failures.append(f"N={N}: residual {r.delta_S!r} not positive")
        if not abs(r.delta_S - reference) <= 1e-9 * reference:
            failures.append(
                f"N={N}: residual {r.delta_S!r} != bigint reference {reference!r}"
            )
        if not abs(r.delta_S / asymptote - 1.0) <= 0.01:
            failures.append(
                f"N={N}: residual {r.delta_S!r} not within 1% of "
                f"asymptote {asymptote!r}"
            )
        if N == 1000 and not r.delta_S / N < 0.005:
            failures.append(
                f"per-particle residual {r.delta_S / N!r} not < 0.005 at N=1000"
            )
    report(capsys, 3, "exact-factorial residual: N ln2 - ln C(N,N/2) > 0, "
              "within 1% of (1/2)ln(pi N/2) for N in {100,1000,10000}", failures)


def test_criterion_04_distinct_mixing_full(capsys):
    """Two distinct gases, 1000 each, half-volumes: delta_S = 2000 ln 2."""
    failures = []
    a = GasCompartment("a", 1000, 0.5, 1.0)
    b = GasCompartment("b", 1000, 0.5, 1.0)
    scenario = MixingScenario.from_compartments(
        (a, b), overlaps=(SpeciesOverlap("a", "b", 0.0),)
    )
    r = mixing_entropy(scenario)
    expected = 2000 * LN2  # 1386.294361120
    if not abs(r.delta_S - expected) <= 1e-9:
        failures.append(f"delta_S = {r.delta_S!r}, expected {expected!r} +- 1e-9")
    report(capsys, 4, "distinct mixing, N=1000 each: delta_S = 1386.294361120 +- 1e-9",
           failures)


def test_criterion_05_distinct_mixing_half_counts(capsys):
    """Same geometry at 500 per species: delta_S = 1000 ln 2."""
    failures = []
    a = GasCompartment("a", 500, 0.5, 1.0)
    b = GasCompartment("b", 500, 0.5, 1.0)
    scenario = MixingScenario.from_compartments(
        (a, b), overlaps=(SpeciesOverlap("a", "b", 0.0),)
    )
    r = mixing_entropy(scenario)
    expected = 1000 * LN2  # 693.147180560
    if not abs(r.delta_S - expected) <= 1e-9:
        failures.append(f"delta_S = {r.delta_S!r}, expected {expected!r} +- 1e-9")
    report(capsys, 5, "distinct mixing, half counts: delta_S = 693.147180560 +- 1e-9",
           failures)


def test_criterion_06_overlap_sweep(capsys):
    """CLI sweep-overlap, 101 points on the half-count scenario: monotone
    non-increasing, full value at q=0, zero at q=1, pinned midpoint."""
    failures = []
    code = main([
        "sweep-overlap",
        "--scenario", str(SCENARIO_DIR / "distinct_half.scenario"),
        "--points", "101",
    ])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"exit code {code}")
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    deltas = [float(row["delta_S"]) for row in rows]
    if len(deltas) != 101:
        failures.append(f"{len(deltas)} points, expected 101")
    for i, (a, b) in enumerate(zip(deltas, deltas[1:])):
        if b > a + 1e-12:
            failures.append(f"not monotone at point {i}: {a!r} -> {b!r}")
            break
    if not abs(deltas[0] - 1000 * LN2) <= 1e-6:
        failures.append(f"delta_S(0) = {deltas[0]!r}, expected 1000 ln2")
    if not abs(deltas[-1]) <= 1e-9:
        failures.append(f"delta_S(1) = {deltas[-1]!r}, expected 0")
    if not abs(deltas[50] - 519.860385420) <= 1e-6:
        failures.append(
            f"delta_S(0.5) = {deltas[50]!r}, expected 519.860385420 +- 1e-6"
        )
    report(capsys, 6, "overlap sweep: monotone, ends {693.147, 0}, "
                      "midpoint 519.860385420 +- 1e-6", failures)


def test_criterion_07_spin_field_toggle(capsys):
    """Spin scenario: no field, no entropy change; field on gains N ln 2,
    extractable as work T delta_S."""
    failures = []
    off = mixing_entropy(spin_field_scenario(1000, 1.0, 1.0, field_on=False))
    if off.delta_S != 0.0:
        failures.append(f"field off: delta_S = {off.delta_S!r}, expected 0")
    on = mixing_entropy(spin_field_scenario(1000, 1.0, 1.0, field_on=True))
    expected = 1000 * LN2
    if not abs(on.delta_S - expected) <= 1e-9:
        failures.append(f"field on: delta_S = {on.delta_S!r}, expected {expected!r}")
    if on.separation_work != on.delta_S:  # T = 1
        failures.append(
            f"work {on.separation_work!r} != delta_S {on.delta_S!r} at T=1"
        )
    report(capsys, 7, "spin field: off -> 0, on -> 693.147 +- 1e-9, work == T delta_S",
           failures)


def test_criterion_08_occupation_entropy_identity(capsys):
    """N ln N + sum n_i ln(g_i/n_i) == N ln Z + U/T within 1e-9 relative
    over 100 randomized ensembles."""
    failures = []
    rng = random.Random(20260816)
    for trial in range(100):
        m = rng.randint(2, 6)
        levels = tuple(
            LevelSpec(rng.uniform(0.0, 5.0), rng.randint(2, 6)) for _ in range(m)
        )
        ens = EnsembleSpec(levels=levels, N=rng.randint(100, 5000),
                           T=rng.uniform(0.2, 10.0))
        n = occupations(ens)
        # left side written out independently of entropy_from_levels
        lhs = ens.N * math.log(ens.N) + sum(
            n_i * math.log(lv.degeneracy / n_i)
            for n_i, lv in zip(n, ens.levels)
            if n_i > 0
        )
        rhs = ens.N * log_partition_function(ens.levels, ens.T) + (
            internal_energy(ens) / ens.T
        )
        scale = abs(rhs)
        if not abs(lhs - rhs) <= 1e-9 * scale:
            failures.append(
                f"trial {trial}: |{lhs!r} - {rhs!r}| > 1e-9 relative"
            )
            break
        # and the library's distinguishable entropy is the same number
        lib = entropy_from_levels(ens, CountingModel.DISTINGUISHABLE).S
        if not abs(lib - rhs) <= 1e-9 * scale:
            failures.append(f"trial {trial}: library route {lib!r} != {rhs!r}")
            break
    report(capsys, 8, "occupation-sum vs partition-function entropy: 1e-9 relative, "
              "100 random ensembles", failures)


def test_criterion_09_bose_limit_agreement(capsys):
    """Dilute ensembles (g_i/n_i >= 1e4): bose-approximate equals
    corrected counting within 1e-6 relative, and both track the exact
    bosonic count."""
    failures = []
    rng = random.Random(271828)
    for trial in range(50):
        m = rng.randint(2, 4)
        N = rng.randint(50, 200)
        # degeneracies large enough that every occupation is dilute
        levels = tuple(
            LevelSpec(rng.uniform(0.0, 2.0), 10**4 * N * rng.randint(1, 5))
            for _ in range(m)
        )
        ens = EnsembleSpec(levels=levels, N=N, T=rng.uniform(0.5, 5.0))
        n = occupations(ens)
        if not all(lv.degeneracy / n_i >= 1e4 for n_i, lv in zip(n, ens.levels)
                   if n_i > 0):
            failures.append(f"trial {trial}: ensemble not dilute")
            continue
        bose = entropy_from_levels(ens, CountingModel.BOSE_APPROXIMATE).S
        corr = entropy_from_levels(ens, CountingModel.GIBBS_CORRECTED).S
        if not abs(bose - corr) <= 1e-6 * abs(corr):
            failures.append(f"trial {trial}: {bose!r} vs {corr!r}")
    # count-level: the approximation tracks the exact bosonic count
    for n_occ, g in ((3, 10**5), (20, 10**6), (100, 10**7)):
        exact = multiplicity_bose_exact(n_occ, g).log_value
        approx = multiplicity_gibbs_corrected((n_occ,), (g,)).log_value
        if not abs(approx - exact) <= 1e-6 * abs(exact):
            failures.append(
                f"counts n={n_occ}, g={g}: {approx!r} vs exact {exact!r}"
            )
    report(capsys, 9, "dilute limit: bose-approximate == corrected within 1e-6 relative",
           failures)


def test_criterion_10_oracle_suite_and_mutation(capsys, monkeypatch):
    """oracle-check passes the full N <= 8 fixed suite; a corrupted
    counting formula is caught with a counterexample."""
    failures = []
    code = main(["oracle-check"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"clean run exit code {code}")
    if "all identities verified: 45 cases" not in out:
        failures.append(f"clean run summary missing: {out.splitlines()[-1]!r}")

    original = mixent.combinatorics.multiplicity_distinguishable

    def corrupted(occ, degs, **kwargs):
        true_count = original(occ, degs, **kwargs)
        return Count.from_int(true_count.value + 1)

    monkeypatch.setattr(
        mixent.combinatorics, "multiplicity_distinguishable", corrupted
    )
    code = main(["oracle-check", "--max-n", "2"])
    out = capsys.readouterr().out
    monkeypatch.undo()
    if code != 1:
        failures.append(f"mutated run exit code {code}, expected 1")
    if "FAIL" not in out or "enumerated" not in out:
        failures.append("mutated run did not print a counterexample")
    report(capsys, 10, "oracle: 45-case suite verified; mutated formula caught",
           failures)


def test_criterion_11_extensivity(capsys):
    """Corrected counting is extensive: S(lam N, lam V, T) = lam S(N, V, T)
    for lam in {2, 3, 10}; distinguishable counting misses by 200 ln 2 at
    lam = 2, N = 100."""
    failures = []
    N, V, T = 100, 1.0, 1.0
    base = ideal_gas_entropy(N, V, T, CountingModel.GIBBS_CORRECTED).S
    for lam in (2, 3, 10):
        scaled = ideal_gas_entropy(
            lam * N, lam * V, T, CountingModel.GIBBS_CORRECTED
        ).S
        # "exactly", read as floating point: 1e-12 relative
        if not math.isclose(scaled, lam * base, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(
                f"lam={lam}: S = {scaled!r}, expected {lam * base!r}"
            )
    dist_base = ideal_gas_entropy(N, V, T, CountingModel.DISTINGUISHABLE).S
    dist_scaled = ideal_gas_entropy(
        2 * N, 2 * V, T, CountingModel.DISTINGUISHABLE
    ).S
    defect = dist_scaled - 2 * dist_base
    expected_defect = 200 * LN2  # ~138.629
    if not math.isclose(defect, expected_defect, rel_tol=1e-12):
        failures.append(
            f"distinguishable defect {defect!r}, expected {expected_defect!r}"
        )
    report(capsys, 11, "extensivity: corrected exact for lam in {2,3,10}; "
               "distinguishable defect 200 ln2", failures)
