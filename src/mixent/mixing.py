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

import math
from collections.abc import Iterable
from dataclasses import dataclass

from . import _EXPORTS, _check
from ._forms import CountingModel, StirlingForm, _entropy, _ideal_gas_S, _publish
from ._scenario import (
    Compartment,
    Overlap,
    Scenario,
    Weighting,
    _reports,
    _row,
    _species_term,
    separation_work,
)
from .errors import DomainError
from .statmech import EntropyResult

__all__ = [*_EXPORTS["mixing"]]

# the core defines these two; they name this module as their home with its
# own name string, which the classes defined here share
_publish(__name__, Weighting, separation_work)


# The public records are frozen dataclasses over the core's records
# (_scenario), whose constructors and checks they inherit.  They add no
# slots: 3.10's dataclass(slots=True) would add the inherited ones again.


@dataclass(frozen=True, init=False)
class GasCompartment(Compartment):
    """One compartment of ideal gas: a species label, N, V, and T."""

    __slots__ = ()

    species: str
    N: int
    V: float
    T: float


@dataclass(frozen=True, init=False)
class SpeciesOverlap(Overlap):
    """Quantum overlap |<a|b>|^2 between the internal states of two species.

    0 means fully orthogonal (classically distinct), 1 means the labels
    name the same state.  The pair is unordered; the constructor sorts it.
    """

    __slots__ = ()

    species_a: str
    species_b: str
    overlap: float

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.species_a, self.species_b))


@dataclass(frozen=True, init=False)
class MixingScenario(Scenario):
    """Initial compartments plus the single final volume they merge into.

    Isothermal by construction: all compartment temperatures must agree
    (1e-12 relative), and final_volume must equal the summed compartment
    volumes (1e-12 relative); violations are domain errors since the
    entropy bookkeeping here has no terms for heat or compression work.
    Left out, final_volume is that sum.  Copied, deep-copied, replaced and
    unpickled scenarios pass the same checks as constructed ones; the
    compartment checks run once per compartments tuple, which copy.copy
    and dataclasses.replace keep (_scenario._summarize).  The
    overlap rule lives in _scenario._species_term, which never reads an
    entry naming a species that no compartment holds; such an entry is
    kept.  The constructor, the defaults and the checks are the core
    scenario's (_scenario.Scenario).
    """

    compartments: tuple[GasCompartment, ...]
    final_volume: float | None
    overlaps: tuple[SpeciesOverlap, ...]
    model: CountingModel
    stirling_form: StirlingForm
    weighting: Weighting

    _rows = {"compartments": GasCompartment, "overlaps": SpeciesOverlap}

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
    that _scenario._species_term applied, 1.0 when only one species is
    present.
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


def _report(
    model: CountingModel,
    form: StirlingForm,
    N: int,
    S_initial: float,
    S_final: float,
    delta_S: float,
    work: float,
    q: float,
) -> MixingReport:
    """The one way a MixingReport is made: from a row whose entropies have
    passed the result checks (_scenario._row), tagged with the model and form."""
    return MixingReport(
        EntropyResult(S_initial, S_initial / N, model, form),
        EntropyResult(S_final, S_final / N, model, form),
        delta_S,
        work,
        q,
    )


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
        scaled by the overlap weighting; ``_scenario._species_term`` forms it.

    Under distinguishable counting the second piece vanishes identically,
    which is the paradox: that counting also never pays the price on the
    first piece, making its total non-extensive.  S_initial is all N as
    one species in the final volume, less the unclamped first piece.  A
    density or an entropy beyond the float range is a DomainError.
    """
    row = next(_reports(scenario, (None,)))
    return _report(scenario.model, scenario.stirling_form, *row)


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
    row = _row(N, _entropy(S_initial, N), S_final, delta_S, T, 1.0)
    return _report(model, stirling_form, *row)


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
