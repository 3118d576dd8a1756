"""Partition functions, Boltzmann occupations, and counting-model entropies.

Reduced units throughout: k_B = 1, temperatures in energy units, entropies
in nats.  Multiply by Boltzmann's constant at the presentation layer if SI
values are wanted; nothing in here needs to know.

The same most-probable occupation set {n_i} feeds three entropy variants
that differ only in how microstates are counted:

    distinguishable     ln[N! prod(g_i^n_i / n_i!)]
    gibbs-corrected     ln[   prod(g_i^n_i / n_i!)]
    bose-approximate    sum ln(g_i^n_i / n_i!)  (dilute multiset count)

The corrected and bose-approximate expressions coincide term by term; both
tags are kept because they arrive at the expression from different counting
stories, and reports should say which story was asked for.  ln n! is taken
under a selectable Stirling form; the two-term form makes the corrected
entropy exactly extensive.

The level arithmetic is plain ``math`` over Python lists: ensembles are a
handful to ten thousand levels, where numpy's import costs more than it
saves.  numpy is imported only inside :func:`occupations` (which returns
an ndarray) and :func:`gibbs_shannon_entropy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _check
from .combinatorics import StirlingForm
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CountingModel",
    "LevelSpec",
    "EnsembleSpec",
    "EntropyResult",
    "partition_function",
    "log_partition_function",
    "occupations",
    "internal_energy",
    "entropy_from_levels",
    "ideal_gas_entropy",
    "gibbs_shannon_entropy",
    "helmholtz_free_energy",
]


class CountingModel(Enum):
    """How microstates are counted when turning occupations into entropy."""

    DISTINGUISHABLE = "distinguishable"
    GIBBS_CORRECTED = "gibbs-corrected"
    BOSE_APPROXIMATE = "bose-approximate"


@dataclass(frozen=True, init=False, slots=True)
class LevelSpec:
    """One energy level: energy in reduced units, integer degeneracy >= 1."""

    energy: float
    degeneracy: int = 1

    def __init__(self, energy: float, degeneracy: int = 1) -> None:
        _set_energy(self, _check.finite("level energy", energy))
        _set_degeneracy(self, _check.count("degeneracy", degeneracy))


# frozen: each slot's own descriptor is the one way in, once per field
_set_energy = LevelSpec.__dict__["energy"].__set__
_set_degeneracy = LevelSpec.__dict__["degeneracy"].__set__


@dataclass(frozen=True)
class EnsembleSpec:
    """N particles at temperature T over a fixed set of levels."""

    levels: tuple[LevelSpec, ...]
    N: int
    T: float

    def __post_init__(self) -> None:
        levels = tuple(
            lv if isinstance(lv, LevelSpec) else LevelSpec(*lv)
            for lv in self.levels
        )
        if not levels:
            raise DomainError("ensemble needs at least one level")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "N", _check.count("N", self.N))
        object.__setattr__(self, "T", _check.positive("T", self.T))


@dataclass(frozen=True)
class EntropyResult:
    """Entropy in units of k_B, tagged with how it was counted."""

    S: float
    per_particle: float
    model: CountingModel
    stirling_form: StirlingForm


def _weights(
    energies: list[float], degs: list[int], T: float
) -> tuple[float, list[float], float]:
    """(e_min, [g_i exp(-(e_i - e_min) / T)], Z) for levels given as columns.

    Shifting by the minimum energy keeps the largest weight at >= 1, so
    deep levels at tiny T do not underflow everything to zero; weights far
    above the minimum may underflow to exactly 0.  A Z beyond the float
    range is a DomainError.
    """
    shift = min(energies)
    exp = math.exp
    weights = [g * exp(-(e - shift) / T) for e, g in zip(energies, degs)]
    try:
        return shift, weights, math.fsum(weights)
    except OverflowError:
        raise DomainError("the partition sum overflows a float") from None


def _occupations(ensemble: EnsembleSpec) -> tuple[list[float], list[int]]:
    """The occupations n_i and the degeneracies g_i, level by level."""
    levels = ensemble.levels
    degs = [lv.degeneracy for lv in levels]
    _, weights, Z = _weights([lv.energy for lv in levels], degs, ensemble.T)
    N = float(ensemble.N)  # the conversion N * w would make, done once
    return [N * w / Z for w in weights], degs


def log_partition_function(levels: Iterable[LevelSpec], T: float) -> float:
    """ln Z for a single particle over the given levels.

    Shifts by the minimum energy before exponentiating, so deep levels at
    tiny T do not underflow everything to zero.
    """
    ensemble = EnsembleSpec(levels=levels, N=1, T=T)  # one particle; checks T
    lvls = ensemble.levels
    shift, _, Z = _weights(
        [lv.energy for lv in lvls], [lv.degeneracy for lv in lvls], ensemble.T
    )
    return -shift / ensemble.T + math.log(Z)


def partition_function(levels: Iterable[LevelSpec], T: float) -> float:
    """Single-particle partition sum Z = sum g_i exp(-e_i / T)."""
    log_Z = log_partition_function(levels, T)
    try:
        return math.exp(log_Z)
    except OverflowError:  # ln Z itself fits a float
        raise DomainError(f"Z = exp({log_Z:.6g}) overflows a float") from None


def occupations(ensemble: EnsembleSpec) -> np.ndarray:
    """Most-probable (Boltzmann) occupations n_i = N g_i e^{-e_i/T} / Z.

    Real-valued ndarray, one entry per level, summing to N.  Computed from
    max-shifted ratios so extreme e/T stay finite.
    """
    import numpy as np

    return np.array(_occupations(ensemble)[0], dtype=float)


def internal_energy(ensemble: EnsembleSpec) -> float:
    """U = sum n_i e_i at the most-probable occupations."""
    n, _ = _occupations(ensemble)
    try:
        U = math.fsum(n_i * lv.energy for n_i, lv in zip(n, ensemble.levels))
    except (OverflowError, ValueError):  # the sum overflows; inf - inf
        U = math.nan
    if not math.isfinite(U):
        raise DomainError(f"internal energy overflows a float at N = {ensemble.N:.6g}")
    return U


def _entropy_result(
    S: float, N: int, model: CountingModel, stirling_form: StirlingForm
) -> EntropyResult:
    """The one way an EntropyResult is made: S must be a finite float."""
    if not math.isfinite(S):
        raise DomainError(f"entropy overflows a float at N = {N:.6g} particles")
    return EntropyResult(
        S=S, per_particle=S / N, model=model, stirling_form=stirling_form
    )


def entropy_from_levels(
    ensemble: EnsembleSpec,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
) -> EntropyResult:
    """Entropy of the most-probable occupation set under a counting model.

    Evaluates ln W with ln n! taken under ``stirling_form``.  Levels with
    zero occupation contribute nothing (the n ln n -> 0 limit).  Under the
    two-term form the distinguishable entropy collapses to the classic
    N ln Z + U/T; that identity is a good end-to-end check and holds to
    ~1e-9 relative in double precision.  An entropy beyond the float range
    is a DomainError.
    """
    _check.member(CountingModel, model)
    _check.member(StirlingForm, stirling_form)
    n, degs = _occupations(ensemble)
    log = math.log
    try:
        # n ln g - ln n! per level; empty levels add 0.0
        core = math.fsum(
            [
                x * log(g) - lf
                for x, g, lf in zip(n, degs, stirling_form._log_factorials(n))
            ]
        )
        if model is CountingModel.DISTINGUISHABLE:
            S = stirling_form.log_factorial(float(ensemble.N)) + core
        else:
            # gibbs-corrected == distinguishable - ln N!; bose-approximate
            # arrives at the same per-level sum from the multiset count
            S = core
    except (OverflowError, ValueError):  # ln n! (a DomainError) or the sum
        S = math.nan  # beyond the float range; fsum raises ValueError on inf - inf
    return _entropy_result(S, ensemble.N, model, stirling_form)


def _ideal_gas_S(
    ns: list[float],
    Vs: list[float],
    T: float,
    model: CountingModel,
    stirling_form: StirlingForm,
    constant: float,
) -> list[float]:
    """Ideal-gas entropies over columns of particle numbers n and volumes V.

    S = n ln V + (3/2) n ln T + C, minus ln n! under the chosen form for
    the corrected models.  n may be non-integer: the mixing code slices
    gases into real-valued parts.  Where ln n! leaves the float range, S
    is -inf or NaN, which the callers' result checks reject.
    """
    if model is CountingModel.DISTINGUISHABLE:
        lfs = [0.0] * len(ns)  # x - 0.0 is x, -0.0 and inf included
    else:
        lfs = stirling_form._log_factorials(ns)
    log = math.log
    log_T = log(T)
    return [
        n * log(V) + 1.5 * n * log_T + constant - lf for n, V, lf in zip(ns, Vs, lfs)
    ]


def ideal_gas_entropy(
    N: int,
    V: float,
    T: float,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
    constant: float = 0.0,
) -> EntropyResult:
    """Monatomic ideal-gas entropy, additive constant left configurable.

    Distinguishable counting gives S = N ln V + (3/2) N ln T + C, which is
    not extensive in N.  The corrected models subtract ln N!; under the
    two-term form that lands on N ln(V/N) + (3/2) N ln T + N + C, which is.
    Only entropy differences at fixed N are meaningful unless the caller
    pins down ``constant``.  An S beyond the float range (N ln N overflows
    near N = 1e306) is a DomainError.
    """
    _check.member(CountingModel, model)
    _check.member(StirlingForm, stirling_form)
    N = _check.count("N", N)
    V = _check.positive("V", V)
    T = _check.positive("T", T)
    constant = _check.finite("constant", constant)
    (S,) = _ideal_gas_S([float(N)], [V], T, model, stirling_form, constant)
    return _entropy_result(S, N, model, stirling_form)


def gibbs_shannon_entropy(probabilities: Sequence[float]) -> float:
    """-sum p ln p over a probability vector.

    Zero entries contribute nothing (p ln p -> 0).  The vector must be
    nonnegative and sum to 1 within 1e-9; anything else is a DomainError,
    not a silent renormalization.
    """
    import numpy as np

    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("probability vector must be 1-d and non-empty")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise DomainError("probabilities must be finite and nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    positive = p[p > 0]
    return float(-(positive * np.log(positive)).sum())


def helmholtz_free_energy(
    ensemble: EnsembleSpec,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
) -> float:
    """F = U - T S with S counted under the given model."""
    U = internal_energy(ensemble)
    S = entropy_from_levels(ensemble, model, stirling_form).S
    return U - ensemble.T * S
