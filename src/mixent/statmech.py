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
saves.  numpy is not a dependency: :func:`occupations` returns a tuple of
floats.  ``CountingModel`` is defined in ``_forms`` and ``EntropyResult``
in ``_result``, which ``mixing`` reads without loading this module.
"""

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import _EXPORTS, _check
from ._check import _FLOAT_OVERFLOW, _INF
from ._forms import CountingModel, StirlingForm, _entropy, _ideal_gas_S
from ._result import EntropyResult
from .errors import DomainError

__all__ = [*_EXPORTS["statmech"]]


@dataclass(frozen=True, init=False, slots=True)
class LevelSpec:
    """One energy level: energy in reduced units, integer degeneracy >= 1."""

    energy: float
    degeneracy: int = 1

    def __init__(self, energy: float, degeneracy: int = 1) -> None:
        # an exact float or int in range is stored as it is; anything else
        # goes through the _check call, which converts it or raises
        if type(energy) is not float or not -_INF < energy < _INF:
            energy = _check.finite("level energy", energy)
        _set_energy(self, energy)
        if type(degeneracy) is not int or not 1 <= degeneracy < _FLOAT_OVERFLOW:
            degeneracy = _check.count("degeneracy", degeneracy)
        _set_degeneracy(self, degeneracy)


# frozen: each slot's own descriptor is the one way in, once per field
_set_energy = LevelSpec.__dict__["energy"].__set__
_set_degeneracy = LevelSpec.__dict__["degeneracy"].__set__


def _level(item: object) -> LevelSpec:
    """The LevelSpec for an (energy,) or (energy, degeneracy) item."""
    # LevelSpec rejects values with DomainError, so a TypeError here means
    # an item that is not iterable or has the wrong length
    try:
        return LevelSpec(*item)
    except TypeError:
        raise DomainError(
            f"levels must be LevelSpec or (energy[, degeneracy]) tuples, got {item!r}"
        ) from None


@dataclass(frozen=True)
class EnsembleSpec:
    """N particles at temperature T over a fixed set of levels."""

    levels: tuple[LevelSpec, ...]
    N: int
    T: float

    def __post_init__(self) -> None:
        levels = tuple(
            lv if isinstance(lv, LevelSpec) else _level(lv)
            for lv in _check.items("levels", self.levels)
        )
        if not levels:
            raise DomainError("ensemble needs at least one level")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "N", _check.count("N", self.N))
        object.__setattr__(self, "T", _check.positive("T", self.T))


def _weights(
    levels: tuple[LevelSpec, ...], T: float
) -> tuple[float, list[float], float]:
    """(e_min, [g_i exp(-(e_i - e_min) / T)], Z) for checked levels.

    Shifting by the minimum energy keeps the largest weight at >= 1, so
    deep levels at tiny T do not underflow everything to zero; weights far
    above the minimum may underflow to exactly 0.  A Z beyond the float
    range is a DomainError.
    """
    shift = min([lv.energy for lv in levels])
    exp = math.exp
    weights = [lv.degeneracy * exp(-(lv.energy - shift) / T) for lv in levels]
    Z = _check.fsum(weights, math.inf)
    if Z == math.inf:
        raise DomainError("the partition sum overflows a float")
    return shift, weights, Z


def _occupations(ensemble: EnsembleSpec) -> tuple[list[float], list[int]]:
    """The occupations n_i and the degeneracies g_i, level by level."""
    levels = ensemble.levels
    _, weights, Z = _weights(levels, ensemble.T)
    N = float(ensemble.N)  # the conversion N * w would make, done once
    return [N * w / Z for w in weights], [lv.degeneracy for lv in levels]


def log_partition_function(levels: Iterable[LevelSpec], T: float) -> float:
    """ln Z for a single particle over the given levels.

    Shifts by the minimum energy before exponentiating, so deep levels at
    tiny T do not underflow everything to zero.  An ln Z beyond the float
    range is a DomainError.
    """
    ensemble = EnsembleSpec(levels=levels, N=1, T=T)  # one particle; checks T
    shift, _, Z = _weights(ensemble.levels, ensemble.T)
    log_Z = -shift / ensemble.T + math.log(Z)
    if not -_INF < log_Z < _INF:
        raise DomainError(f"ln Z overflows a float at T = {ensemble.T:.6g}")
    return log_Z


def partition_function(levels: Iterable[LevelSpec], T: float) -> float:
    """Single-particle partition sum Z = sum g_i exp(-e_i / T)."""
    log_Z = log_partition_function(levels, T)
    try:
        return math.exp(log_Z)
    except OverflowError:  # ln Z itself fits a float
        raise DomainError(f"Z = exp({log_Z:.6g}) overflows a float") from None


def occupations(ensemble: EnsembleSpec) -> tuple[float, ...]:
    """Most-probable (Boltzmann) occupations n_i = N g_i e^{-e_i/T} / Z.

    A tuple of floats, one entry per level, summing to N.  Computed from
    max-shifted ratios so extreme e/T stay finite.
    """
    return tuple(_occupations(ensemble)[0])


def internal_energy(ensemble: EnsembleSpec) -> float:
    """U = sum n_i e_i at the most-probable occupations."""
    n, _ = _occupations(ensemble)
    U = _check.fsum([n_i * lv.energy for n_i, lv in zip(n, ensemble.levels)], math.nan)
    if not math.isfinite(U):
        raise DomainError(f"internal energy overflows a float at N = {ensemble.N:.6g}")
    return U


def _entropy_result(
    S: float, N: int, model: CountingModel, stirling_form: StirlingForm
) -> EntropyResult:
    """The EntropyResult of S for N particles: S passes ``_forms._entropy``."""
    S = _entropy(S, N)
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
    # ln g once per distinct degeneracy: before Python 3.12 math.log is the
    # dearest call per level, and wide ensembles repeat a few degeneracies
    log_g = {g: math.log(g) for g in set(degs)}
    # n ln g - ln n! per level (empty levels add 0.0): the gibbs-corrected
    # entropy, which bose-approximate reaches from the multiset count
    lfs = stirling_form._log_factorials(n)
    S = _check.fsum([x * log_g[g] - lf for x, g, lf in zip(n, degs, lfs)], math.nan)
    if model is CountingModel.DISTINGUISHABLE:  # plus ln N!, inf past the float range
        S = stirling_form._log_factorials((float(ensemble.N),))[0] + S
    return _entropy_result(S, ensemble.N, model, stirling_form)


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
    S = _ideal_gas_S(float(N), V, T, model, stirling_form, constant)
    return _entropy_result(S, N, model, stirling_form)


def gibbs_shannon_entropy(probabilities: Iterable[float]) -> float:
    """-sum p ln p over a probability vector.

    Any iterable of reals, a 1-d ndarray included.  Zero entries
    contribute nothing (p ln p -> 0).  The vector must be non-empty,
    finite, nonnegative and sum to 1 within 1e-9; anything else is a
    DomainError, not a silent renormalization.  Both sums are
    ``_check.fsum``, so the entries' order does not change the result.
    """
    try:
        items = list(probabilities)
    except TypeError:  # a scalar or a 0-d ndarray
        items = []
    # an ndarray of two or more dimensions iterates over its rows
    if not items or any(getattr(x, "ndim", 0) for x in items):
        raise DomainError("probability vector must be 1-d and non-empty")
    p = [_check.finite("probabilities", x) for x in items]
    if any(x < 0.0 for x in p):
        raise DomainError("probabilities must be finite and nonnegative")
    total = _check.fsum(p, math.inf)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    log = math.log
    return _check.fsum([-x * log(x) for x in p if x > 0.0], math.inf)


def helmholtz_free_energy(
    ensemble: EnsembleSpec,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
) -> float:
    """F = U - T S with S counted under the given model.

    An F beyond the float range is a DomainError.
    """
    U = internal_energy(ensemble)
    S = entropy_from_levels(ensemble, model, stirling_form).S
    F = U - ensemble.T * S
    if not -_INF < F < _INF:
        raise DomainError(
            f"free energy overflows a float at N = {ensemble.N:.6g}, T = {ensemble.T:.6g}"
        )
    return F
