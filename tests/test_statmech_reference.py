"""Level arithmetic and the Gibbs-Shannon entropy against a 50-digit mpmath
evaluation of the same formulas.

The reference takes the double-precision energies, degeneracies, N and T
as exact inputs and evaluates ln Z, U and the counting-model entropies in
50-digit arithmetic.  The tolerance is 1e-12 relative, fixed before any
result was looked at.  A level whose exact occupation lies below the
smallest positive double has zero occupation in double precision and
contributes nothing under the documented n = 0 convention; the reference
applies the same convention.  (The double-precision weight underflows
before it is multiplied by g N / Z, so a level can drop out while its
exact occupation is still a few subnormals; the underflow case keeps
clear of that band, where the three-term form's -(1/2) ln(2 pi n) term
alone is worth ~370 nats.)
"""

from __future__ import annotations

import functools
import math
import random

import pytest

from mixent.combinatorics import StirlingForm
from mixent.statmech import (
    CountingModel,
    EnsembleSpec,
    LevelSpec,
    entropy_from_levels,
    gibbs_shannon_entropy,
    internal_energy,
    log_partition_function,
)

mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-12
DIGITS = 50


def _eight_levels():
    energies = (0.0, 0.25, 0.4, 1.1, 2.0, 3.3, 4.75, 6.0)
    degeneracies = (1, 3, 2, 1, 4, 2, 5, 1)
    return tuple(LevelSpec(e, g) for e, g in zip(energies, degeneracies))


def _wide_levels():
    rng = random.Random(2006)
    return tuple(
        LevelSpec(rng.uniform(-5.0, 30.0), rng.randint(1, 9)) for _ in range(10_000)
    )


CASES = {
    "8-levels": EnsembleSpec(_eight_levels(), N=1000, T=1.3),
    "8-levels-hot": EnsembleSpec(_eight_levels(), N=10**6, T=25.0),
    "negative-energies": EnsembleSpec(
        tuple(LevelSpec(-e, g) for e, g in ((4.0, 2), (3.5, 1), (2.25, 6), (1.0, 3))),
        N=77,
        T=0.9,
    ),
    "large-degeneracies": EnsembleSpec(
        (LevelSpec(0.0, 10**6), LevelSpec(0.5, 3 * 10**6), LevelSpec(2.0, 10**7)),
        N=5000,
        T=0.8,
    ),
    "10k-levels": EnsembleSpec(_wide_levels(), N=500_000, T=1.5),
    # e/T of 800 and 2000: those weights underflow to exactly 0, and their
    # exact occupations lie far below the smallest double as well
    "underflow": EnsembleSpec(
        (
            LevelSpec(0.0, 1),
            LevelSpec(0.002, 2),
            LevelSpec(0.01, 3),
            LevelSpec(0.03, 1),
            LevelSpec(8.0, 4),
            LevelSpec(20.0, 2),
        ),
        N=400,
        T=0.01,
    ),
    # -e_min/T = 3e6 and e/T up to 7e6 above the ground level
    "tiny-T-deep-ground": EnsembleSpec(
        (LevelSpec(-3.0, 1), LevelSpec(-2.999998, 2), LevelSpec(4.0, 2)),
        N=1234,
        T=1e-6,
    ),
}


def _log_factorial(n, form):
    if form is StirlingForm.EXACT:
        return mpmath.loggamma(n + 1)
    value = n * mpmath.log(n) - n
    if form is StirlingForm.THREE_TERM:
        value += mpmath.log(2 * mpmath.pi * n) / 2
    return value


@functools.cache
def _reference(name):
    """(ln Z, U, {(model, form): S}) for one case, in 50-digit arithmetic."""
    ens = CASES[name]
    with mpmath.workdps(DIGITS):
        T = mpmath.mpf(ens.T)
        N = mpmath.mpf(ens.N)
        terms = [
            mpmath.mpf(lv.degeneracy) * mpmath.exp(-mpmath.mpf(lv.energy) / T)
            for lv in ens.levels
        ]
        Z = mpmath.fsum(terms)
        n = [N * t / Z for t in terms]
        U = mpmath.fsum(n_i * mpmath.mpf(lv.energy) for n_i, lv in zip(n, ens.levels))
        smallest_double = mpmath.mpf(2) ** -1074
        occupied = [
            (n_i, lv.degeneracy) for n_i, lv in zip(n, ens.levels) if n_i >= smallest_double
        ]
        S = {}
        for form in StirlingForm:
            core = mpmath.fsum(
                n_i * mpmath.log(g) - _log_factorial(n_i, form) for n_i, g in occupied
            )
            for model in CountingModel:
                if model is CountingModel.DISTINGUISHABLE:
                    S[model, form] = _log_factorial(N, form) + core
                else:
                    S[model, form] = core
        return mpmath.log(Z), U, S


def _rel_err(value, ref):
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))


@pytest.mark.parametrize("name", sorted(CASES))
def test_log_partition_function(name):
    ens = CASES[name]
    ref, _, _ = _reference(name)
    assert _rel_err(log_partition_function(ens.levels, ens.T), ref) <= REL_TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_internal_energy(name):
    _, ref, _ = _reference(name)
    assert _rel_err(internal_energy(CASES[name]), ref) <= REL_TOL


@pytest.mark.parametrize("form", list(StirlingForm), ids=lambda f: f.value)
@pytest.mark.parametrize("model", list(CountingModel), ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(CASES))
def test_entropy_from_levels(name, model, form):
    ens = CASES[name]
    _, _, S = _reference(name)
    result = entropy_from_levels(ens, model, form)
    assert _rel_err(result.S, S[model, form]) <= REL_TOL
    assert _rel_err(result.per_particle, S[model, form] / ens.N) <= REL_TOL


def _probability_vectors():
    rng = random.Random(1948)
    vectors = {
        "fair-coin": [0.5, 0.5],
        "with-zeros": [0.0, 0.25, 0.0, 0.75],
        "tiny-entries": [1.0, 1e-300, 2e-300],  # sums to 1 in double precision
    }
    for size in (3, 50, 10_000):
        raw = [rng.random() ** 8 for _ in range(size)]
        total = math.fsum(raw)
        vectors[f"random-{size}"] = [x / total for x in raw]
    return vectors


PROBABILITIES = _probability_vectors()


@pytest.mark.parametrize("name", sorted(PROBABILITIES))
def test_gibbs_shannon_entropy(name):
    p = PROBABILITIES[name]
    with mpmath.workdps(DIGITS):
        ref = -mpmath.fsum(mpmath.mpf(x) * mpmath.log(x) for x in p if x > 0)
    assert _rel_err(gibbs_shannon_entropy(p), ref) <= REL_TOL
    assert gibbs_shannon_entropy(reversed(p)) == gibbs_shannon_entropy(p)
