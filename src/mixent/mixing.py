"""Entropy bookkeeping for joining, partitioning, and mixing ideal gases.

Scenarios are isothermal: compartments share one temperature and the walls
between them are removed (or inserted) without heat exchange against a
bath.  Entropy changes then come entirely from counting, which is where
the interesting paradoxes live:

  * Under distinguishable counting, merely splitting a gas into parts
    changes its entropy; the corrected (N!-divided) count restores
    extensivity and makes the split a non-event.
  * Mixing two different gases at matched densities gains ln 2 per
    particle; the same operation on one gas gains nothing.  The jump
    between those two answers is discontinuous in the species label but
    continuous in the quantum overlap between the species' states, which
    is what :func:`overlap_weighted_mixing_entropy` interpolates.

Reduced units: k_B = 1, entropies in nats, work in T-units of energy.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from . import _EXPORTS, _check
from ._check import _FLOAT_OVERFLOW, _INF
from ._forms import (
    CountingModel,
    EntropyResult,
    StirlingForm,
    _entropy_result,
    _ideal_gas_S,
    _log_multinomial,
)
from .errors import DomainError

__all__ = [*_EXPORTS["mixing"]]

_REL_TOL = 1e-12


@dataclass(frozen=True, init=False, slots=True)
class GasCompartment:
    """One compartment of ideal gas: a species label, N, V, and T."""

    species: str
    N: int
    V: float
    T: float

    def __init__(self, species: str, N: int, V: float, T: float) -> None:
        # an exact str, int or float in range is stored as it is; anything
        # else goes through the _check call, which converts it or raises
        if type(species) is not str or not species:
            species = _check.label("species", species)
        _set_species(self, species)
        if type(N) is not int or not 1 <= N < _FLOAT_OVERFLOW:
            N = _check.count("N", N)
        _set_N(self, N)
        if type(V) is not float or not 0.0 < V < _INF:
            V = _check.positive("V", V)
        _set_V(self, V)
        if type(T) is not float or not 0.0 < T < _INF:
            T = _check.positive("T", T)
        _set_T(self, T)


@dataclass(frozen=True, init=False, slots=True)
class SpeciesOverlap:
    """Quantum overlap |<a|b>|^2 between the internal states of two species.

    0 means fully orthogonal (classically distinct), 1 means the labels
    name the same state.  The pair is unordered; the constructor sorts it.
    """

    species_a: str
    species_b: str
    overlap: float

    def __init__(self, species_a: str, species_b: str, overlap: float) -> None:
        # exact-type values in range skip the _check call, as in GasCompartment
        if type(species_a) is not str or not species_a:
            _check.label("species", species_a)
        if type(species_b) is not str or not species_b:
            _check.label("species", species_b)
        if species_a == species_b:
            raise DomainError(
                f"overlap of species {species_a!r} with itself is fixed at 1"
            )
        if species_b < species_a:
            species_a, species_b = species_b, species_a
        _set_species_a(self, species_a)
        _set_species_b(self, species_b)
        if type(overlap) is not float or not 0.0 <= overlap <= 1.0:
            overlap = _check.overlap(overlap)
        _set_overlap(self, overlap)

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.species_a, self.species_b))


# frozen: each slot's own descriptor is the one way in, once per field
_set_species, _set_N, _set_V, _set_T = (
    GasCompartment.__dict__[name].__set__ for name in ("species", "N", "V", "T")
)
_set_species_a, _set_species_b, _set_overlap = (
    SpeciesOverlap.__dict__[name].__set__
    for name in ("species_a", "species_b", "overlap")
)


class Weighting(Enum):
    """How the overlap q scales the inter-species part of mixing entropy.

    COMPLEMENT multiplies by (1 - q^2): full mixing entropy at q = 0,
    none at q = 1, continuous in between.  It is a modelling choice, not
    the quantum (density-matrix) entropy: a 50/50 mixture of two pure
    states with |<a|b>|^2 = q has von Neumann entropy H((1 + sqrt q) / 2),
    which at q = 0.5 is 0.60 of ln 2 where 1 - q^2 gives 0.75 (Allahverdyan
    & Nieuwenhuizen, PRE 73, 066119, 2006).  LITERAL multiplies by q^2
    itself and is kept for contrast; it gets the endpoints backwards.
    """

    COMPLEMENT = "complement"
    LITERAL = "literal"

    def _scale(self, q: float) -> float:
        """The factor on the inter-species term at a checked overlap q."""
        return 1.0 - q * q if self is Weighting.COMPLEMENT else q * q


@dataclass(frozen=True)
class MixingScenario:
    """Initial compartments plus the single final volume they merge into.

    Isothermal by construction: all compartment temperatures must agree
    (1e-12 relative), and final_volume must equal the summed compartment
    volumes (1e-12 relative); violations are domain errors since the
    entropy bookkeeping here has no terms for heat or compression work.
    Left out, final_volume is that sum.  Copied, deep-copied, replaced and
    unpickled scenarios pass the same checks as constructed ones; the
    compartment checks run once per compartments tuple, which copy.copy
    and dataclasses.replace keep (mixing._summarize).  The
    overlap rule lives in mixing._species_term, which never reads an entry
    naming a species that no compartment holds; such an entry is kept.
    """

    compartments: tuple[GasCompartment, ...]
    final_volume: float | None = None
    overlaps: tuple[SpeciesOverlap, ...] = ()
    model: CountingModel = CountingModel.GIBBS_CORRECTED
    stirling_form: StirlingForm = StirlingForm.TWO_TERM
    weighting: Weighting = Weighting.COMPLEMENT

    def __post_init__(self) -> None:
        comps, (*_, v_sum, _) = _summarize(self.compartments)
        object.__setattr__(self, "compartments", comps)
        v_fin = v_sum if self.final_volume is None else self.final_volume
        v_fin = _check.positive("final_volume", v_fin)
        if not math.isclose(v_fin, v_sum, rel_tol=_REL_TOL):
            raise DomainError(
                f"final_volume {v_fin!r} must equal the summed compartment "
                f"volumes {v_sum!r} (isothermal merge, no compression)"
            )
        object.__setattr__(self, "final_volume", v_fin)
        overlaps = _check.items("overlaps", self.overlaps)
        object.__setattr__(self, "overlaps", overlaps)
        # the one overlap table, (species_a, species_b) -> q; not a field,
        # so eq, hash and repr skip it
        table: dict[tuple[str, str], float] = {}
        for o in overlaps:
            if not isinstance(o, SpeciesOverlap):
                raise DomainError(f"overlaps must be SpeciesOverlap, got {o!r}")
            pair = (o.species_a, o.species_b)
            if pair in table:
                raise DomainError(f"duplicate overlap entry for pair {list(pair)}")
            table[pair] = o.overlap
        object.__setattr__(self, "_overlap_table", table)
        _check.member(CountingModel, self.model)
        _check.member(StirlingForm, self.stirling_form)
        _check.member(Weighting, self.weighting)

    def __setstate__(self, state: dict[str, object]) -> None:
        # copies and unpickled scenarios pass the constructor's checks, and
        # pickles made before the table existed load with it
        self.__dict__.update(state)
        self.__post_init__()

    @classmethod
    def from_compartments(
        cls, compartments: Iterable[GasCompartment], **fields: object
    ) -> "MixingScenario":
        """The scenario over ``compartments``, merging into their summed volume.

        ``fields`` are MixingScenario's other keyword fields (overlaps,
        model, stirling_form, weighting), with the same defaults.
        """
        return cls(compartments=tuple(compartments), **fields)

    @property
    def temperature(self) -> float:
        return self.compartments[0].T

    @property
    def total_particles(self) -> int:
        return sum(c.N for c in self.compartments)

    def species(self) -> tuple[str, ...]:
        """Distinct species labels, sorted."""
        return tuple(sorted({c.species for c in self.compartments}))

    def pair_overlap(self, a: str, b: str) -> float:
        """Overlap for a species pair; 1 for identical labels, 0 if unlisted."""
        return _species_term(self, dict.fromkeys((a, b), 1))[1]


@dataclass(frozen=True)
class MixingReport:
    """Before/after entropies for a scenario, plus the derived quantities.

    separation_work is T * delta_S: the minimum isothermal work to undo
    the change (meaningful when delta_S >= 0).  overlap_applied is the q
    that mixing._species_term applied, 1.0 when only one species is present.
    """

    S_initial: EntropyResult
    S_final: EntropyResult
    delta_S: float
    separation_work: float
    overlap_applied: float


def overlap_weighted_mixing_entropy(
    delta_S_full: float,
    overlap: float,
    weighting: Weighting = Weighting.COMPLEMENT,
) -> float:
    """Scale a fully-distinct mixing entropy by the species overlap q, as
    ``weighting`` scales mixing_entropy's inter-species term (see
    :class:`Weighting`).  delta_S_full must be a finite real.
    """
    delta = _check.finite("delta_S_full", delta_S_full)
    q = _check.overlap(overlap)
    _check.member(Weighting, weighting)
    return delta * weighting._scale(q)


def separation_work(delta_S: float, T: float) -> float:
    """Minimum isothermal work T * delta_S to reverse an entropy change.

    Reduced units: with k_B = 1 the product of a temperature and an
    entropy in nats is already an energy.  A product beyond the float
    range is a DomainError.
    """
    T = _check.positive("T", T)
    delta_S = _check.finite("delta_S", delta_S)
    work = T * delta_S
    if not -_INF < work < _INF:
        raise DomainError(
            f"separation work overflows a float at T = {T:.6g}, delta_S = {delta_S:.6g}"
        )
    return work


def _report(
    initial: EntropyResult, S_final: float, delta_S: float, N: int, T: float, q: float
) -> MixingReport:
    """The one way a MixingReport is made: S_final is checked as ``initial``
    was, and the separation work is T * delta_S."""
    final = _entropy_result(S_final, N, initial.model, initial.stirling_form)
    return MixingReport(initial, final, delta_S, separation_work(delta_S, T), q)


def _species_term(
    scenario: MixingScenario, per_species: dict[str, int], grid_q: float | None = None
) -> tuple[float, float]:
    """The weighted inter-species term over per-species totals N_s, and its q.

    The overlap rule: one species has q = 1; two, their pair overlap (0 if
    unlisted); more must all agree, since the weighting is global.  A
    grid_q sets every pair.  Only pairs of species in per_species are read.
    Distinguishable counting never notices species (+0.0); otherwise
    ln(N! / prod N_s!) under the form, scaled by the weighting (inf or NaN
    is left to the caller).
    """
    if grid_q is None:
        pairs = itertools.combinations(sorted(per_species), 2)  # none for one species
        values = set(map(scenario._overlap_table.get, pairs, itertools.repeat(0.0)))
    else:
        values = {grid_q} if len(per_species) > 1 else set()
    if len(values) > 1:
        raise DomainError(
            "pairwise overlaps must all agree when more than two species mix; "
            f"got {sorted(values)}"
        )
    q = values.pop() if values else 1.0
    if scenario.model is CountingModel.DISTINGUISHABLE:
        return 0.0, q
    delta = _log_multinomial(list(per_species.values()), scenario.stirling_form)
    return delta * scenario.weighting._scale(q), q


# The last compartments tuple summarized, with its summary: one pair, set
# in one assignment, so a thread reads both halves of the same one.  The
# pair keeps the tuple alive, so no other object can take its id.
_last_summary: tuple[tuple[GasCompartment, ...], tuple] | None = None


def _summarize(compartments: object) -> tuple[tuple[GasCompartment, ...], tuple]:
    """The checked compartments tuple and what it alone decides: the n
    (as floats) and V columns, the per-species totals, the total N, the
    summed volume, and a dict of density log-sums keyed by
    (distinguishable, final_volume) that mixing_entropy fills.

    Every compartment check of MixingScenario is here.  The last summary
    is reused while the same tuple object comes back, as it does for
    copies and replaced scenarios; any other value is checked and
    summarized anew.  Nothing remembered here comes from the
    Stirling forms, _species_term or _report, so a call that reuses a
    summary still goes through each of them.
    """
    global _last_summary
    last = _last_summary
    if last is not None and last[0] is compartments:
        return last
    comps = _check.items("compartments", compartments)
    if not comps:
        raise DomainError("scenario needs at least one compartment")
    for c in comps:
        if not isinstance(c, GasCompartment):
            raise DomainError(f"compartments must be GasCompartment, got {c!r}")
    t0 = comps[0].T
    ns: list[float] = []
    Vs: list[float] = []
    per_species: dict[str, int] = {}
    n_sum = 0
    for c in comps:
        T = c.T
        if T != t0 and not math.isclose(T, t0, rel_tol=_REL_TOL):
            raise DomainError(
                f"scenario must be isothermal: temperatures {t0!r} and {T!r} differ"
            )
        n = c.N
        n_sum += n
        ns.append(float(n))
        Vs.append(c.V)
        per_species[c.species] = per_species.get(c.species, 0) + n
    _check.count("total particle number", n_sum)
    v_sum = _check.fsum(Vs, math.inf)
    if v_sum == math.inf:
        raise DomainError("the summed compartment volumes overflow a float")
    _last_summary = comps, (ns, Vs, per_species, n_sum, v_sum, {})
    return _last_summary


def _density_log_sum(
    ns: list[float], Vs: list[float], N: int, distinguishable: bool, V_final: float
) -> float:
    """sum n_c ln(V_final / V_c) under distinguishable counting, else
    sum n_c ln(rho_c / rho); a density beyond the float range is a
    DomainError."""
    log = math.log
    if distinguishable:
        return _check.fsum([n * log(V_final / V) for n, V in zip(ns, Vs)], math.nan)
    rho = N / V_final
    rhos = [n / V for n, V in zip(ns, Vs)]
    if rho == _INF or _INF in rhos:
        raise DomainError(f"a density n / V overflows a float at N = {N:.6g}")
    return _check.fsum([n * log(r / rho) for n, r in zip(ns, rhos)], math.nan)


def mixing_entropy(scenario: MixingScenario) -> MixingReport:
    """Entropy change when a scenario's compartments merge into one volume.

    The change is split into two physically distinct pieces, each formed
    directly, not as a difference of entropies of order N ln N:

      * density equilibration: what the merge would gain even if every
        compartment held the same species.  Under the corrected models it
        is max(sum n_c ln(rho_c / rho), 0) + sum r(n_c) - r(N), with
        rho_c = n_c / V_c, rho = N / final_volume and r the Stirling
        form's remainder.  The first sum is N times a relative entropy,
        and the clamp reads a rounding below 0 as 0, so the term is never
        negative, and exactly 0 under the two-term form wherever each
        rho_c == rho in floating point.  Distinguishable counting gains
        sum n_c ln(final_volume / V_c);
      * inter-species mixing: ln(N! / prod N_s!) under the form over the
        per-species totals N_s, sum N_s ln(N / N_s) under the two-term form,
        scaled by the overlap weighting; ``_species_term`` forms it.

    Under distinguishable counting the second piece vanishes identically,
    which is the paradox: that counting also never pays the price on the
    first piece, making its total non-extensive.  S_initial is all N as
    one species in the final volume, less the unclamped first piece.  A
    density or an entropy beyond the float range is a DomainError.
    """
    return next(_reports(scenario, (None,)))


def _reports(scenario: MixingScenario, grid: Iterable) -> Iterator[MixingReport]:
    """mixing_entropy per grid_q in ``grid``; None keeps the scenario's overlaps."""
    T = scenario.temperature
    model = scenario.model
    form = scenario.stirling_form
    V_final = scenario.final_volume
    ns, Vs, per_species, N_total, _, log_sums = _summarize(scenario.compartments)[1]
    key = (model is CountingModel.DISTINGUISHABLE, V_final)
    log_sum = log_sums.get(key)
    if log_sum is None:
        log_sum = log_sums[key] = _density_log_sum(ns, Vs, N_total, *key)
    if model is CountingModel.DISTINGUISHABLE:
        gain = delta_density = log_sum
    else:
        r_N, *rs = form._remainders([float(N_total), *ns])
        excess = _check.fsum([*rs, -r_N], math.nan)
        gain = log_sum + excess
        # the clamp; NaN fails the comparison and is kept for the result checks
        delta_density = (0.0 if log_sum <= 0.0 else log_sum) + excess
    S_merged = _ideal_gas_S(float(N_total), V_final, T, model, form, 0.0)
    initial = _entropy_result(S_merged - gain, N_total, model, form)

    for grid_q in grid:
        delta_species, q = _species_term(scenario, per_species, grid_q)
        delta_S = delta_density + delta_species
        # S_final is inf or NaN if delta_S is: one check covers both
        yield _report(initial, initial.S + delta_S, delta_S, N_total, T, q)


def partition_change_entropy(
    N: int,
    V: float,
    T: float,
    parts: int,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
) -> MixingReport:
    """Entropy effect of slicing one gas of N particles into equal parts.

    Removing the walls gains N ln(parts) under distinguishable counting
    and parts * r(N / parts) - r(N), with r the Stirling form's remainder,
    under the corrected models; the partitioned S is the joined S less
    that.  The report is oriented as an insertion: S_initial is the
    undivided gas, S_final the partitioned one.  Distinguishable counting
    then loses N ln(parts) (the paradox: walls should not change the
    entropy); the corrected count under the two-term form gains or loses
    exactly nothing.

    Under the EXACT form the corrected count leaves a small positive
    finite-size residual, and the report flips to the removal
    orientation (S_initial partitioned, S_final joined) so that
    delta_S = N ln(parts) - ln(multinomial) >= 0 is the quantity
    reported: the entropy gained by letting the parts rejoin, which two-
    term truncation rounds away.  For two parts it approaches
    (1/2) ln(pi N / 2).  The EXACT form requires parts | N so the
    multinomial is a true integer count.
    """
    N = _check.count("N", N)
    V = _check.positive("V", V)
    T = _check.positive("T", T)
    parts = _check.integer("parts", parts, 2)
    if parts > N:
        raise DomainError(f"cannot split N={N} particles into {parts} parts")
    _check.member(CountingModel, model)
    _check.member(StirlingForm, stirling_form)
    exact_corrected = (
        model is not CountingModel.DISTINGUISHABLE
        and stirling_form is StirlingForm.EXACT
    )
    if exact_corrected and N % parts != 0:
        raise DomainError(
            f"exact-form partition residual needs parts | N, got N={N}, parts={parts}"
        )
    if V / parts == 0.0:
        raise DomainError(f"V / parts underflows to 0 at V = {V!r}, parts = {parts}")

    if model is CountingModel.DISTINGUISHABLE:
        removal = N * math.log(parts)
    else:
        r_part, r_joined = stirling_form._remainders((N / parts, float(N)))
        removal = parts * r_part - r_joined
    S_joined = _ideal_gas_S(float(N), V, T, model, stirling_form, 0.0)
    S_parted = S_joined - removal
    if exact_corrected:
        S_initial, S_final, delta_S = S_parted, S_joined, removal
    else:  # 0.0 - 0.0 is +0.0 where -removal would be -0.0
        S_initial, S_final, delta_S = S_joined, S_parted, 0.0 - removal
    initial = _entropy_result(S_initial, N, model, stirling_form)
    return _report(initial, S_final, delta_S, N, T, 1.0)


def spin_field_scenario(
    N: int, V: float, T: float, field_on: bool
) -> MixingScenario:
    """Two half-volumes of spin-1/2 gas, optionally split by a field.

    With the field off, "spin-up" and "spin-down" are the same physical
    state (overlap 1): removing the wall changes nothing.  Switching the
    field on makes the two spin populations orthogonal (overlap 0), and
    exactly the same wall removal now generates N ln 2 of mixing entropy,
    extractable as work T * N ln 2.  The information needed to tell the
    halves apart, not anything mechanical, is what changed.
    """
    N = _check.count("N", N)
    if N % 2 != 0:
        raise DomainError(f"spin scenario splits N in half, so N must be even; got {N}")
    V = _check.positive("V", V)
    half_n = N // 2
    half_v = V / 2.0
    compartments = (
        GasCompartment("spin-up", half_n, half_v, T),
        GasCompartment("spin-down", half_n, half_v, T),
    )
    q = 0.0 if field_on else 1.0
    return MixingScenario.from_compartments(
        compartments,
        overlaps=(SpeciesOverlap("spin-up", "spin-down", q),),
    )
