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
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from . import _check
from .combinatorics import StirlingForm
from .errors import DomainError
from .statmech import CountingModel, EntropyResult, _entropy_result, _ideal_gas_S

__all__ = [
    "GasCompartment",
    "SpeciesOverlap",
    "Weighting",
    "MixingScenario",
    "MixingReport",
    "partition_change_entropy",
    "mixing_entropy",
    "overlap_weighted_mixing_entropy",
    "separation_work",
    "spin_field_scenario",
]

_REL_TOL = 1e-12


@dataclass(frozen=True, init=False, slots=True)
class GasCompartment:
    """One compartment of ideal gas: a species label, N, V, and T."""

    species: str
    N: int
    V: float
    T: float

    def __init__(self, species: str, N: int, V: float, T: float) -> None:
        if not isinstance(species, str) or not species:
            raise DomainError(f"species must be a non-empty string, got {species!r}")
        _set_species(self, species)
        _set_N(self, _check.count("N", N))
        _set_V(self, _check.positive("V", V))
        _set_T(self, _check.positive("T", T))


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
        for name in (species_a, species_b):
            if not isinstance(name, str) or not name:
                raise DomainError(f"species must be a non-empty string, got {name!r}")
        if species_a == species_b:
            raise DomainError(
                f"overlap of species {species_a!r} with itself is fixed at 1"
            )
        if species_b < species_a:
            species_a, species_b = species_b, species_a
        _set_species_a(self, species_a)
        _set_species_b(self, species_b)
        _set_overlap(self, _check.overlap(overlap))

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


@dataclass(frozen=True)
class MixingScenario:
    """Initial compartments plus the single final volume they merge into.

    Isothermal by construction: all compartment temperatures must agree
    (1e-12 relative), and final_volume must equal the summed compartment
    volumes (1e-12 relative); violations are domain errors since the
    entropy bookkeeping here has no terms for heat or compression work.
    Left out, final_volume is that sum.
    """

    compartments: tuple[GasCompartment, ...]
    final_volume: float | None = None
    overlaps: tuple[SpeciesOverlap, ...] = ()
    model: CountingModel = CountingModel.GIBBS_CORRECTED
    stirling_form: StirlingForm = StirlingForm.TWO_TERM
    weighting: Weighting = Weighting.COMPLEMENT

    def __post_init__(self) -> None:
        comps = tuple(self.compartments)
        if not comps:
            raise DomainError("scenario needs at least one compartment")
        for c in comps:
            if not isinstance(c, GasCompartment):
                raise DomainError(f"compartments must be GasCompartment, got {c!r}")
        object.__setattr__(self, "compartments", comps)
        # one pass: the isothermal check and the N and V sums.  V is added
        # left to right from 0, as sum() does before Python 3.12 (which
        # compensates), so the default final_volume is the same everywhere.
        t0 = comps[0].T
        n_sum = 0
        v_sum = 0
        for c in comps:
            T = c.T
            if T != t0 and not math.isclose(T, t0, rel_tol=_REL_TOL):
                raise DomainError(
                    f"scenario must be isothermal: temperatures {t0!r} and {T!r} differ"
                )
            n_sum += c.N
            v_sum += c.V
        _check.count("total particle number", n_sum)
        v_fin = v_sum if self.final_volume is None else self.final_volume
        v_fin = _check.positive("final_volume", v_fin)
        if not math.isclose(v_fin, v_sum, rel_tol=_REL_TOL):
            raise DomainError(
                f"final_volume {v_fin!r} must equal the summed compartment "
                f"volumes {v_sum!r} (isothermal merge, no compression)"
            )
        object.__setattr__(self, "final_volume", v_fin)
        ovl = tuple(self.overlaps)
        seen: set[tuple[str, str]] = set()  # (species_a, species_b), sorted
        for o in ovl:
            if not isinstance(o, SpeciesOverlap):
                raise DomainError(f"overlaps must be SpeciesOverlap, got {o!r}")
            pair = (o.species_a, o.species_b)
            if pair in seen:
                raise DomainError(f"duplicate overlap entry for pair {list(pair)}")
            seen.add(pair)
        object.__setattr__(self, "overlaps", ovl)
        _check.member(CountingModel, self.model)
        _check.member(StirlingForm, self.stirling_form)
        _check.member(Weighting, self.weighting)

    @classmethod
    def from_compartments(
        cls, compartments: Iterable[GasCompartment], **fields: Any
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
        if a == b:
            return 1.0
        # the unordered-pair test, without a frozenset per entry
        for o in self.overlaps:
            x, y = o.species_a, o.species_b
            if (x == a and y == b) or (x == b and y == a):
                return o.overlap
        return 0.0


@dataclass(frozen=True)
class MixingReport:
    """Before/after entropies for a scenario, plus the derived quantities.

    separation_work is T * delta_S: the minimum isothermal work to undo
    the change (meaningful when delta_S >= 0).  overlap_applied records
    the effective overlap q used, 1.0 when only one species is present.
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
    """Scale a fully-distinct mixing entropy by the species overlap q.

    COMPLEMENT: delta * (1 - q^2), which runs continuously from the full
    value at q = 0 to exactly 0 at q = 1.  LITERAL: delta * q^2.
    """
    q = _check.overlap(overlap)
    _check.member(Weighting, weighting)
    if weighting is Weighting.COMPLEMENT:
        return delta_S_full * (1.0 - q * q)
    return delta_S_full * (q * q)


def separation_work(delta_S: float, T: float) -> float:
    """Minimum isothermal work T * delta_S to reverse an entropy change.

    Reduced units: with k_B = 1 the product of a temperature and an
    entropy in nats is already an energy.
    """
    T = _check.positive("T", T)
    return T * _check.finite("delta_S", delta_S)


def _effective_overlap(scenario: MixingScenario) -> float:
    """The single q applied to a scenario's inter-species mixing term.

    One species: q = 1 by definition.  Two species: their pair overlap.
    More: all pairwise overlaps must agree (the weighting is global, so a
    scenario mixing three species with unequal overlaps has no single
    consistent q and is rejected).
    """
    species = scenario.species()
    if len(species) == 1:
        return 1.0
    # built once: pair_overlap scans the whole overlap list on every call.
    # Keyed like the sorted species pairs that combinations() yields.
    table = {(o.species_a, o.species_b): o.overlap for o in scenario.overlaps}
    values = {table.get(pair, 0.0) for pair in itertools.combinations(species, 2)}
    if len(values) > 1:
        raise DomainError(
            "pairwise overlaps must all agree when more than two species mix; "
            f"got {sorted(values)}"
        )
    return values.pop()


def mixing_entropy(scenario: MixingScenario) -> MixingReport:
    """Entropy change when a scenario's compartments merge into one volume.

    The change is split into two physically distinct pieces:

      * density equilibration: what the merge would gain even if every
        compartment held the same species (a relative-entropy term,
        nonnegative, zero when densities are matched);
      * inter-species mixing: the extra gain from the species being
        distinct, i.e. the difference between merging as separate species
        and merging as one.

    The overlap weighting applies only to the second piece.  Under
    distinguishable counting the second piece vanishes identically (that
    counting never notices species), which is the paradox: it also never
    pays the price on the first piece, making its total non-extensive.
    A summed entropy beyond the float range is a DomainError.
    """
    T = scenario.temperature
    model = scenario.model
    form = scenario.stirling_form
    # one pass for the n and V columns and the per-species totals
    ns: list[float] = []
    Vs: list[float] = []
    per_species: dict[str, int] = {}
    for c in scenario.compartments:
        n = c.N
        ns.append(float(n))
        Vs.append(c.V)
        per_species[c.species] = per_species.get(c.species, 0) + n
    N_total = sum(per_species.values())

    S_initial = sum(_ideal_gas_S(ns, Vs, T, model, form, 0.0))  # compartment order
    # each species alone in the final volume, then all N as one species
    ns_final = [float(n) for n in per_species.values()] + [float(N_total)]
    *S_species, S_final_identical = _ideal_gas_S(
        ns_final, [scenario.final_volume] * len(ns_final), T, model, form, 0.0
    )
    S_final_distinct = sum(S_species)
    initial = _entropy_result(S_initial, N_total, model, form)

    q = _effective_overlap(scenario)
    delta_identical = S_final_identical - S_initial
    delta_inter = S_final_distinct - S_final_identical
    delta_S = delta_identical + overlap_weighted_mixing_entropy(
        delta_inter, q, scenario.weighting
    )
    # S_final is inf or NaN whenever S_final_distinct or S_final_identical
    # is, so this check covers both
    final = _entropy_result(S_initial + delta_S, N_total, model, form)
    return MixingReport(
        S_initial=initial,
        S_final=final,
        delta_S=delta_S,
        separation_work=separation_work(delta_S, T),
        overlap_applied=q,
    )


def partition_change_entropy(
    N: int,
    V: float,
    T: float,
    parts: int,
    model: CountingModel,
    stirling_form: StirlingForm = StirlingForm.TWO_TERM,
) -> MixingReport:
    """Entropy effect of slicing one gas of N particles into equal parts.

    Under the Stirling forms the report is oriented as an insertion:
    S_initial is the undivided gas, S_final the partitioned one.
    Distinguishable counting then loses N ln(parts) (the paradox: walls
    should not change the entropy); the corrected count under the
    two-term form gains or loses exactly nothing.

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

    V_part = V / parts
    if V_part == 0.0:
        raise DomainError(f"V / parts underflows to 0 at V = {V!r}, parts = {parts}")
    S_joined, S_part = _ideal_gas_S(
        [float(N), N / parts], [V, V_part], T, model, stirling_form, 0.0
    )
    joined = _entropy_result(S_joined, N, model, stirling_form)
    parted = _entropy_result(parts * S_part, N, model, stirling_form)

    initial, final = (parted, joined) if exact_corrected else (joined, parted)
    delta_S = final.S - initial.S
    return MixingReport(
        S_initial=initial,
        S_final=final,
        delta_S=delta_S,
        separation_work=separation_work(delta_S, T),
        overlap_applied=1.0,
    )


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
    T = _check.positive("T", T)
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
