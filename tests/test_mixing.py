"""Partition insertion/removal, gas mixing, and overlap interpolation."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import random
import weakref
from pathlib import Path

import pytest

from mixent import _check, _scenario, mixing
from mixent.combinatorics import StirlingForm
from mixent.errors import DomainError
from mixent.mixing import (
    GasCompartment,
    MixingScenario,
    SpeciesOverlap,
    Weighting,
    mixing_entropy,
    overlap_weighted_mixing_entropy,
    partition_change_entropy,
    separation_work,
    spin_field_scenario,
)
from mixent.scenario_io import load_scenario
from mixent.statmech import CountingModel

LN2 = math.log(2)
ROOT = Path(__file__).resolve().parent.parent
CORRECTED = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)


def two_gas_scenario(
    n_each=500,
    overlap=0.0,
    species=("argon", "krypton"),
    weighting=Weighting.COMPLEMENT,
    model=CountingModel.GIBBS_CORRECTED,
    temperature=1.0,
):
    a = GasCompartment(species[0], n_each, 0.5, temperature)
    b = GasCompartment(species[1], n_each, 0.5, temperature)
    overlaps = ()
    if species[0] != species[1]:
        overlaps = (SpeciesOverlap(species[0], species[1], overlap),)
    return MixingScenario.from_compartments(
        (a, b), overlaps=overlaps, model=model, weighting=weighting
    )


class TestPartitionChangeEntropy:
    def test_distinguishable_insertion_loses_N_ln_parts(self):
        r = partition_change_entropy(
            1000, 1.0, 1.0, 2, CountingModel.DISTINGUISHABLE
        )
        assert r.delta_S == pytest.approx(-1000 * LN2, abs=1e-9)
        assert r.S_final.S - r.S_initial.S == r.delta_S

    def test_distinguishable_scales_with_parts(self):
        for parts in (2, 4, 5):
            r = partition_change_entropy(
                1000, 1.0, 1.0, parts, CountingModel.DISTINGUISHABLE
            )
            assert r.delta_S == pytest.approx(-1000 * math.log(parts), abs=1e-9)

    def test_corrected_two_term_is_a_non_event(self):
        r = partition_change_entropy(
            1000, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED
        )
        assert abs(r.delta_S) < 1e-9

    def test_corrected_exact_leaves_positive_residual(self):
        # removal orientation: rejoining the halves gains the finite-size
        # entropy that two-term truncation hides
        for N in (100, 1000, 10000):
            r = partition_change_entropy(
                N, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
            )
            reference = N * LN2 - math.log(math.comb(N, N // 2))
            assert r.delta_S > 0
            assert r.delta_S == pytest.approx(reference, rel=1e-9)
            asymptote = 0.5 * math.log(math.pi * N / 2)
            assert r.delta_S / asymptote == pytest.approx(1.0, abs=1e-2)

    def test_exact_residual_three_parts(self):
        # multinomial generalization of the two-part residual
        N = 300
        r = partition_change_entropy(
            N, 1.0, 1.0, 3, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
        )
        multinomial = math.factorial(N) // math.factorial(100) ** 3
        assert r.delta_S == pytest.approx(
            N * math.log(3) - math.log(multinomial), rel=1e-9
        )

    def test_three_term_approximates_exact_residual(self):
        exact = partition_change_entropy(
            1000, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
        ).delta_S
        three = partition_change_entropy(
            1000, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, StirlingForm.THREE_TERM
        ).delta_S
        # three-term reports the insertion direction, so compare magnitudes
        assert three < 0
        assert abs(three) == pytest.approx(exact, rel=1e-3)

    def test_model_contrast_shares_code_path(self):
        # same call, same numbers except for the counting model
        kwargs = dict(N=1000, V=1.0, T=1.0, parts=2)
        dist = partition_change_entropy(
            model=CountingModel.DISTINGUISHABLE, **kwargs
        )
        corr = partition_change_entropy(
            model=CountingModel.GIBBS_CORRECTED, **kwargs
        )
        assert dist.delta_S == pytest.approx(-1000 * LN2, abs=1e-9)
        assert abs(corr.delta_S) < 1e-9
        # same geometry and orientation; only the counting differs
        assert dist.S_initial.S - corr.S_initial.S == pytest.approx(
            StirlingForm.TWO_TERM.log_factorial(1000.0), rel=1e-12
        )

    def test_bose_approximate_matches_corrected(self):
        corr = partition_change_entropy(
            600, 2.0, 1.5, 3, CountingModel.GIBBS_CORRECTED
        )
        bose = partition_change_entropy(
            600, 2.0, 1.5, 3, CountingModel.BOSE_APPROXIMATE
        )
        assert bose.delta_S == corr.delta_S

    def test_work_is_T_times_delta(self):
        for T in (0.5, 1.0, 4.0):
            r = partition_change_entropy(
                200, 1.0, T, 2, CountingModel.DISTINGUISHABLE
            )
            assert r.separation_work == T * r.delta_S

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            partition_change_entropy(10, 1.0, 1.0, 1, CountingModel.GIBBS_CORRECTED)
        with pytest.raises(DomainError):
            partition_change_entropy(3, 1.0, 1.0, 5, CountingModel.GIBBS_CORRECTED)
        with pytest.raises(DomainError):
            # exact residual needs parts | N
            partition_change_entropy(
                1001, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
            )
        with pytest.raises(DomainError):
            partition_change_entropy(10, 0.0, 1.0, 2, CountingModel.GIBBS_CORRECTED)


class TestMixingEntropy:
    def test_distinct_full_density_matched(self):
        # two different gases, 1000 each, half-volumes: 2 N ln 2 total
        scenario = two_gas_scenario(n_each=1000)
        r = mixing_entropy(scenario)
        assert r.delta_S == pytest.approx(2000 * LN2, abs=1e-9)
        assert r.overlap_applied == 0.0

    def test_distinct_half_counts(self):
        scenario = two_gas_scenario(n_each=500)
        r = mixing_entropy(scenario)
        assert r.delta_S == pytest.approx(1000 * LN2, abs=1e-9)

    def test_same_species_merge_is_free(self):
        scenario = two_gas_scenario(species=("argon", "argon"))
        r = mixing_entropy(scenario)
        assert r.delta_S == 0.0
        assert r.overlap_applied == 1.0
        assert r.separation_work == 0.0

    def test_exact_zeros_are_positive_zeros(self):
        # matched densities at any N: +0.0, never -0.0 or a rounding residue
        scenarios = [
            spin_field_scenario(10**12, 1.0, 1.0, field_on=False),
            MixingScenario.from_compartments([GasCompartment("a", 73, 1.0, 1.0)] * 3),
            load_scenario(ROOT / "scenarios" / "same_species.scenario").scenario,
        ]
        zeros = [mixing_entropy(s).delta_S for s in scenarios]
        for N in (2, 1000, 10**16, 10**18):
            for model in CORRECTED:
                zeros.append(partition_change_entropy(N, 1.0, 1.0, 2, model).delta_S)
        assert zeros == [0.0] * len(zeros)
        assert all(math.copysign(1.0, z) == 1.0 for z in zeros)

    def test_entropies_add_in_any_order(self, monkeypatch):
        # a remainder column that cancels: 1e16 + 1.0 rounds back to 1e16,
        # so adding left to right gives 0.0 or 1.0 depending on the order;
        # the correctly rounded sum is 1.0 in every order and on every
        # interpreter.  Matched densities leave only that sum in the
        # density term, and three species of 10 add 30 ln 3 less it.
        scenario = MixingScenario.from_compartments(
            GasCompartment(s, 10, 1.0, 1.0) for s in ("a", "b", "c")
        )
        inter = math.fsum([10 * math.log(3.0)] * 3 + [-1.0])
        for terms in itertools.permutations((1e16, 1.0, -1e16)):

            def remainders(self, xs, terms=terms):
                return [0.0, *terms]  # r(N), then one per compartment or species

            monkeypatch.setattr(StirlingForm, "_remainders", remainders)
            r = mixing_entropy(scenario)
            assert r.delta_S == 1.0 + inter, terms

    def test_density_mismatch_gains_entropy_even_for_same_species(self):
        a = GasCompartment("argon", 900, 0.5, 1.0)
        b = GasCompartment("argon", 100, 0.5, 1.0)
        scenario = MixingScenario.from_compartments((a, b))
        r = mixing_entropy(scenario)
        # KL-type term: N * sum p ln(p/q) with p = (0.9, 0.1), q = (0.5, 0.5)
        expected = 1000 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))
        assert r.delta_S == pytest.approx(expected, rel=1e-9)
        assert r.delta_S > 0

    def test_distinguishable_never_sees_species(self):
        distinct = two_gas_scenario(model=CountingModel.DISTINGUISHABLE)
        same = two_gas_scenario(
            species=("argon", "argon"), model=CountingModel.DISTINGUISHABLE
        )
        r_distinct = mixing_entropy(distinct)
        r_same = mixing_entropy(same)
        assert r_distinct.delta_S == pytest.approx(r_same.delta_S, abs=1e-9)
        # and under this counting the density-matched merge is NOT free:
        # each half-gas gains N/2 ln 2 of volume entropy
        assert r_same.delta_S == pytest.approx(1000 * LN2, abs=1e-9)

    def test_partial_overlap_midpoint(self):
        scenario = two_gas_scenario(overlap=0.5)
        r = mixing_entropy(scenario)
        assert r.delta_S == pytest.approx(0.75 * 1000 * LN2, rel=1e-9)
        assert r.overlap_applied == 0.5

    def test_report_sum_rule(self):
        scenario = two_gas_scenario(overlap=0.3)
        r = mixing_entropy(scenario)
        assert r.S_final.S - r.S_initial.S == pytest.approx(r.delta_S, rel=1e-12)
        assert r.separation_work == r.delta_S  # T = 1

    def test_monotone_in_overlap(self):
        # 101-point sweep: delta_S falls monotonically as overlap rises
        deltas = []
        for i in range(101):
            q = i / 100
            r = mixing_entropy(two_gas_scenario(overlap=q))
            deltas.append(r.delta_S)
        for lo, hi in zip(deltas[1:], deltas):
            assert lo <= hi + 1e-12
        assert deltas[0] == pytest.approx(1000 * LN2, abs=1e-9)
        assert deltas[-1] == pytest.approx(0.0, abs=1e-12)

    def test_continuity_in_overlap(self):
        # no jumps: nearby overlaps give nearby entropies
        delta = 1e-4
        scale = 1000 * LN2
        for q in (0.0, 0.3, 0.7, 1.0 - delta):
            a = mixing_entropy(two_gas_scenario(overlap=q)).delta_S
            b = mixing_entropy(two_gas_scenario(overlap=q + delta)).delta_S
            # |d/dq (1-q^2)| <= 2, so the bound is 2 * delta * scale
            assert abs(a - b) <= 2.5 * delta * scale

    def test_literal_weighting_contrast(self):
        on_lit = mixing_entropy(
            two_gas_scenario(overlap=0.0, weighting=Weighting.LITERAL)
        )
        off_lit = mixing_entropy(
            two_gas_scenario(overlap=1.0, weighting=Weighting.LITERAL)
        )
        assert on_lit.delta_S == pytest.approx(0.0, abs=1e-12)
        assert off_lit.delta_S == pytest.approx(1000 * LN2, abs=1e-9)

    def test_composition_reverses(self):
        # mix then unmix: the separation work pays back exactly
        rng = random.Random(97)
        for _ in range(50):
            n_a = rng.randint(1, 2000)
            n_b = rng.randint(1, 2000)
            v_a = rng.uniform(0.1, 5.0)
            v_b = rng.uniform(0.1, 5.0)
            T = rng.uniform(0.1, 10.0)
            q = rng.random()
            a = GasCompartment("a", n_a, v_a, T)
            b = GasCompartment("b", n_b, v_b, T)
            scenario = MixingScenario.from_compartments(
                (a, b), overlaps=(SpeciesOverlap("a", "b", q),)
            )
            r = mixing_entropy(scenario)
            # independent recomputation of the same decomposition
            n_t = n_a + n_b
            v_t = v_a + v_b
            def s_one(n, v):
                return n * math.log(v / n) + 1.5 * n * math.log(T) + n
            d_ident = s_one(n_t, v_t) - s_one(n_a, v_a) - s_one(n_b, v_b)
            d_inter = s_one(n_a, v_t) + s_one(n_b, v_t) - s_one(n_t, v_t)
            expected = d_ident + (1 - q * q) * d_inter
            assert r.delta_S == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert r.separation_work == pytest.approx(T * r.delta_S, rel=1e-12)

    def test_second_law_random_scenarios(self):
        # merging never lowers the corrected entropy, any overlap
        rng = random.Random(131)
        for _ in range(100):
            n_comps = rng.randint(1, 4)
            T = rng.uniform(0.05, 20.0)
            comps = tuple(
                GasCompartment(
                    f"species{i}", rng.randint(1, 3000), rng.uniform(0.05, 8.0), T
                )
                for i in range(n_comps)
            )
            q = rng.random()
            overlaps = tuple(
                SpeciesOverlap(f"species{i}", f"species{j}", q)
                for i in range(n_comps)
                for j in range(i + 1, n_comps)
            )
            scenario = MixingScenario.from_compartments(comps, overlaps=overlaps)
            r = mixing_entropy(scenario)
            assert r.delta_S >= -1e-9

    # the overlap rule holds under every model, distinguishable included,
    # although that model never weights a species term
    @pytest.mark.parametrize("model", list(CountingModel))
    def test_three_species_equal_overlaps_allowed(self, model):
        comps = tuple(
            GasCompartment(s, 100, 1.0, 1.0) for s in ("a", "b", "c")
        )
        overlaps = tuple(
            SpeciesOverlap(x, y, 0.25) for x, y in (("a", "b"), ("a", "c"), ("b", "c"))
        )
        r = mixing_entropy(
            MixingScenario.from_compartments(comps, overlaps=overlaps, model=model)
        )
        assert r.overlap_applied == 0.25

    @pytest.mark.parametrize("model", list(CountingModel))
    def test_three_species_unequal_overlaps_rejected(self, model):
        comps = tuple(
            GasCompartment(s, 100, 1.0, 1.0) for s in ("a", "b", "c")
        )
        overlaps = (
            SpeciesOverlap("a", "b", 0.25),
            SpeciesOverlap("a", "c", 0.75),
            SpeciesOverlap("b", "c", 0.25),
        )
        with pytest.raises(DomainError) as exc:
            mixing_entropy(
                MixingScenario.from_compartments(comps, overlaps=overlaps, model=model)
            )
        assert str(exc.value) == (
            "pairwise overlaps must all agree when more than two species mix; "
            "got [0.25, 0.75]"
        )

    @pytest.mark.parametrize("model", list(CountingModel))
    def test_unlisted_pair_among_listed_ones_rejected(self, model):
        # the unlisted b-c pair counts as q = 0, which disagrees with 0.25
        comps = tuple(
            GasCompartment(s, 100, 1.0, 1.0) for s in ("a", "b", "c")
        )
        overlaps = (SpeciesOverlap("a", "b", 0.25), SpeciesOverlap("a", "c", 0.25))
        with pytest.raises(DomainError, match="agree"):
            mixing_entropy(
                MixingScenario.from_compartments(comps, overlaps=overlaps, model=model)
            )

    @pytest.mark.parametrize("model", list(CountingModel))
    def test_overlap_of_an_absent_species_is_kept_but_unused(self, model):
        # "krypto" is no compartment's species: its entries never enter the
        # rule, not even one that would disagree with the pairs present
        comps = tuple(
            GasCompartment(s, 100, 1.0, 1.0) for s in ("a", "b", "c")
        )
        present = tuple(
            SpeciesOverlap(x, y, 0.25) for x, y in (("a", "b"), ("a", "c"), ("b", "c"))
        )
        absent = (SpeciesOverlap("a", "krypto", 1.0), SpeciesOverlap("b", "krypto", 0.5))
        plain = MixingScenario.from_compartments(comps, overlaps=present, model=model)
        extra = MixingScenario.from_compartments(
            comps, overlaps=present + absent, model=model
        )
        assert extra.overlaps == present + absent
        assert extra.pair_overlap("a", "krypto") == 1.0
        assert mixing_entropy(extra) == mixing_entropy(plain)

    def test_overlap_table_matches_pairs_given_in_either_order(self):
        names = [f"sp{k}" for k in range(12)]
        comps = tuple(GasCompartment(s, 10 + k, 0.5, 2.0) for k, s in enumerate(names))
        overlaps = tuple(
            SpeciesOverlap(b, a, 0.5) if k % 2 else SpeciesOverlap(a, b, 0.5)
            for k, (a, b) in enumerate(
                (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
            )
        )
        r = mixing_entropy(MixingScenario.from_compartments(comps, overlaps=overlaps))
        assert r.overlap_applied == 0.5
        with pytest.raises(DomainError) as exc:
            mixing_entropy(
                MixingScenario.from_compartments(comps, overlaps=overlaps[1:])
            )
        assert str(exc.value) == (
            "pairwise overlaps must all agree when more than two species mix; "
            "got [0.0, 0.5]"
        )

    def test_unlisted_pair_defaults_to_orthogonal(self):
        a = GasCompartment("a", 500, 0.5, 1.0)
        b = GasCompartment("b", 500, 0.5, 1.0)
        r = mixing_entropy(MixingScenario.from_compartments((a, b)))
        assert r.overlap_applied == 0.0
        assert r.delta_S == pytest.approx(1000 * LN2, abs=1e-9)


class TestOverlapWeighting:
    def test_complement_endpoints(self):
        assert overlap_weighted_mixing_entropy(693.0, 0.0) == 693.0
        assert overlap_weighted_mixing_entropy(693.0, 1.0) == 0.0

    def test_complement_midpoint(self):
        full = 1000 * LN2
        assert overlap_weighted_mixing_entropy(full, 0.5) == pytest.approx(
            519.860385419959, rel=1e-12
        )

    def test_literal_endpoints(self):
        assert overlap_weighted_mixing_entropy(693.0, 0.0, Weighting.LITERAL) == 0.0
        assert overlap_weighted_mixing_entropy(693.0, 1.0, Weighting.LITERAL) == 693.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            overlap_weighted_mixing_entropy(1.0, 1.5)
        with pytest.raises(DomainError):
            overlap_weighted_mixing_entropy(1.0, -0.1)

    @pytest.mark.parametrize(
        "delta, message",
        [
            (math.inf, "delta_S_full must be finite, got inf"),
            (-math.inf, "delta_S_full must be finite, got -inf"),
            (math.nan, "delta_S_full must be finite, got nan"),
            (True, "delta_S_full must be a real number, got True"),
            ("a", "delta_S_full must be a real number, got 'a'"),
            (None, "delta_S_full must be a real number, got None"),
        ],
        ids=["inf", "-inf", "nan", "True", "str", "None"],
    )
    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_full_entropy_must_be_finite_real(self, delta, message, weighting):
        # inf at q = 1 used to give nan where the weighting promises 0
        for q in (0.0, 1.0):
            with pytest.raises(DomainError) as exc:
                overlap_weighted_mixing_entropy(delta, q, weighting)
            assert str(exc.value) == message

    def test_full_entropy_int_is_read_as_float(self):
        assert overlap_weighted_mixing_entropy(10, 0.5) == 7.5


class TestSeparationWork:
    def test_zero_change_zero_work(self):
        assert separation_work(0.0, 3.0) == 0.0

    def test_unit_temperature_identity(self):
        assert separation_work(693.1471805599453, 1.0) == 693.1471805599453

    def test_scales_with_temperature(self):
        assert separation_work(100.0, 2.5) == 250.0

    def test_invalid_temperature(self):
        with pytest.raises(DomainError):
            separation_work(1.0, 0.0)


class TestSpinFieldScenario:
    def test_field_off_is_free(self):
        r = mixing_entropy(spin_field_scenario(1000, 1.0, 1.0, field_on=False))
        assert r.delta_S == 0.0
        assert r.overlap_applied == 1.0

    def test_field_on_gains_N_ln2(self):
        r = mixing_entropy(spin_field_scenario(1000, 1.0, 1.0, field_on=True))
        assert r.delta_S == pytest.approx(1000 * LN2, abs=1e-9)
        assert r.overlap_applied == 0.0

    def test_work_equals_delta_at_unit_temperature(self):
        r = mixing_entropy(spin_field_scenario(1000, 1.0, 1.0, field_on=True))
        assert r.separation_work == r.delta_S

    def test_work_scales_with_temperature(self):
        r = mixing_entropy(spin_field_scenario(100, 1.0, 2.0, field_on=True))
        assert r.separation_work == pytest.approx(2.0 * 100 * LN2, rel=1e-9)

    def test_odd_N_rejected(self):
        with pytest.raises(DomainError):
            spin_field_scenario(999, 1.0, 1.0, field_on=True)


class TestScenarioValidation:
    def test_isothermal_enforced(self):
        a = GasCompartment("a", 10, 1.0, 1.0)
        b = GasCompartment("b", 10, 1.0, 2.0)
        with pytest.raises(DomainError):
            MixingScenario(compartments=(a, b), final_volume=2.0)

    def test_final_volume_enforced(self):
        a = GasCompartment("a", 10, 1.0, 1.0)
        b = GasCompartment("b", 10, 1.0, 1.0)
        with pytest.raises(DomainError):
            MixingScenario(compartments=(a, b), final_volume=3.0)

    def test_duplicate_overlap_rejected(self):
        a = GasCompartment("a", 10, 1.0, 1.0)
        b = GasCompartment("b", 10, 1.0, 1.0)
        overlaps = (
            SpeciesOverlap("a", "b", 0.1),
            SpeciesOverlap("b", "a", 0.2),
        )
        with pytest.raises(DomainError):
            MixingScenario(
                compartments=(a, b), final_volume=2.0, overlaps=overlaps
            )

    def test_duplicate_overlap_message_names_the_sorted_pair(self):
        a = GasCompartment("a", 10, 1.0, 1.0)
        b = GasCompartment("b", 10, 1.0, 1.0)
        overlaps = (SpeciesOverlap("b", "a", 0.1), SpeciesOverlap("a", "b", 0.1))
        with pytest.raises(DomainError) as exc:
            MixingScenario(compartments=(a, b), final_volume=2.0, overlaps=overlaps)
        assert str(exc.value) == "duplicate overlap entry for pair ['a', 'b']"

    def test_overlap_entries_must_be_species_overlaps(self):
        c = GasCompartment("a", 10, 1.0, 1.0)
        with pytest.raises(DomainError, match="SpeciesOverlap"):
            MixingScenario(compartments=(c,), overlaps=("x",))

    def test_pair_overlap_of_identical_and_unlisted_pairs(self):
        s = two_gas_scenario(overlap=0.25, species=("a", "b"))
        assert s.pair_overlap("a", "a") == 1.0
        assert s.pair_overlap("b", "a") == 0.25
        assert s.pair_overlap("a", "c") == 0.0

    def test_self_overlap_rejected(self):
        with pytest.raises(DomainError):
            SpeciesOverlap("a", "a", 0.5)

    def test_overlap_range_enforced(self):
        with pytest.raises(DomainError):
            SpeciesOverlap("a", "b", 1.0001)

    def test_empty_scenario_rejected(self):
        with pytest.raises(DomainError):
            MixingScenario(compartments=(), final_volume=1.0)

    def test_compartment_validation(self):
        with pytest.raises(DomainError):
            GasCompartment("", 10, 1.0, 1.0)
        with pytest.raises(DomainError):
            GasCompartment("a", 0, 1.0, 1.0)
        with pytest.raises(DomainError):
            GasCompartment("a", 10, -1.0, 1.0)
        with pytest.raises(DomainError):
            GasCompartment("a", 10, 1.0, float("inf"))

    def test_ints_beyond_float_range_rejected(self):
        GasCompartment("a", 10**308, 1.0, 1.0)
        with pytest.raises(DomainError, match="fit a float"):
            GasCompartment("a", 10**400, 1.0, 1.0)
        with pytest.raises(DomainError, match="fit a float"):
            partition_change_entropy(
                10**400, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED
            )
        with pytest.raises(DomainError, match="fit a float"):
            spin_field_scenario(10**400, 1.0, 1.0, field_on=True)

    def test_total_beyond_float_range_rejected(self):
        # each compartment fits a float, their sum does not
        a = GasCompartment("a", 10**308, 1.0, 1.0)
        b = GasCompartment("a", 10**308, 1.0, 1.0)
        with pytest.raises(DomainError, match="total particle number"):
            MixingScenario(compartments=(a, b), final_volume=2.0)


class TestEntropyBeyondFloatRange:
    """Particle counts that fit a float but whose entropy does not."""

    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_mixing_entropy(self, form):
        # each compartment's N ln N overflows, so both sides of delta_S do
        comps = (
            GasCompartment("a", 10**307, 1.0, 1.0),
            GasCompartment("b", 10**307, 1.0, 1.0),
        )
        scenario = MixingScenario.from_compartments(comps, stirling_form=form)
        with pytest.raises(DomainError) as exc:
            mixing_entropy(scenario)
        assert str(exc.value) == "entropy overflows a float at N = 2e+307 particles"

    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_partition_change_entropy(self, form):
        with pytest.raises(DomainError, match="entropy overflows a float"):
            partition_change_entropy(
                10**308, 1.0, 1.0, 2, CountingModel.GIBBS_CORRECTED, form
            )


class TestOneReportBuilder:
    """Every MixingReport is made by mixing._report, and every species term
    by _scenario._species_term: with either refusing, each call that goes
    through it raises under every model, form and weighting, and the others
    still succeed.  The report each call returns is the one _report built."""

    @pytest.mark.parametrize("model", list(CountingModel))
    @pytest.mark.parametrize("form", list(StirlingForm))
    @pytest.mark.parametrize("weighting", list(Weighting))
    # the patched name, and how many of the two calls go through it:
    # partition_change_entropy has no species term
    @pytest.mark.parametrize("name, users", [("_report", 2), ("_species_term", 1)])
    def test_both_calls_build_through_it(
        self, monkeypatch, name, users, model, form, weighting
    ):
        scenario = MixingScenario.from_compartments(
            (GasCompartment("a", 6, 1.0, 1.0), GasCompartment("b", 4, 2.0, 1.0)),
            model=model,
            stirling_form=form,
            weighting=weighting,
        )
        calls = (
            lambda: mixing_entropy(scenario),
            lambda: partition_change_entropy(12, 1.0, 1.0, 2, model, form),
        )
        owner = mixing if name == "_report" else _scenario
        build = getattr(owner, name)
        built = []

        def refuse(*args):
            raise AssertionError("refused")

        def record(*args):
            built.append(build(*args))
            return built[-1]

        monkeypatch.setattr(owner, name, refuse)
        for call in calls[:users]:
            with pytest.raises(AssertionError, match="refused"):
                call()
        for call in calls[users:]:
            call()
        monkeypatch.setattr(owner, name, record)
        for call in calls:
            report = call()
            if name == "_report":
                assert report is built[-1]
        assert len(built) == users


def _overlaps(scenario, q):
    """Every species pair of ``scenario`` at overlap q."""
    return tuple(
        SpeciesOverlap(a, b, q) for a, b in itertools.combinations(scenario.species(), 2)
    )


def _rebuilt(scenario):
    """``scenario`` over a new compartments tuple with the same values."""
    fresh = tuple(list(scenario.compartments))
    assert fresh is not scenario.compartments
    return dataclasses.replace(scenario, compartments=fresh)


def _seeded_scenarios():
    """Small seeded scenarios over every model, form and weighting, with one
    to three species, and one wide scenario shaped like the benchmark's
    wide mix request: 1,000 compartments over 50 species."""
    rng = random.Random(2801)
    for model, form, weighting in itertools.product(
        CountingModel, StirlingForm, Weighting
    ):
        for _ in range(4):
            T = rng.uniform(0.1, 10.0)
            names = [f"sp{k}" for k in range(rng.randint(1, 3))]
            comps = tuple(
                GasCompartment(
                    names[i] if i < len(names) else rng.choice(names),
                    rng.randint(1, 10**6),
                    rng.uniform(0.05, 8.0),
                    T,
                )
                for i in range(rng.randint(len(names), 6))
            )
            yield MixingScenario.from_compartments(
                comps, model=model, stirling_form=form, weighting=weighting
            )
    names = [f"sp{k}" for k in range(50)]
    comps = tuple(
        GasCompartment(
            names[i] if i < 50 else rng.choice(names),
            rng.randint(1, 1000),
            round(rng.uniform(0.1, 2.0), 4),
            1.5,
        )
        for i in range(1000)
    )
    yield MixingScenario.from_compartments(comps)


def _entry(compartments):
    """The kept summary entry of ``compartments`` (the newest), or None."""
    return next((e for e in _scenario._summaries if e[0] is compartments), None)


def _wide_pair():
    """Two scenarios of 1,000 compartments over 50 species each."""
    *_, wide = _seeded_scenarios()
    comps = wide.compartments
    return wide, MixingScenario.from_compartments(comps[500:] + comps[:500])


class TestCompartmentSummary:
    """A scenario's compartment checks and columns are summarized once per
    compartments tuple (_scenario._summarize), and reused while that tuple
    comes back among the last few summarized, as it does for replaced
    scenarios, sweep points and scenarios evaluated in turn."""

    def test_reused_summary_gives_the_same_bits(self):
        for scenario in _seeded_scenarios():
            nudged = scenario.final_volume * (1 + 4e-13)
            assert nudged != scenario.final_volume
            twins = [
                dataclasses.replace(scenario, overlaps=_overlaps(scenario, q))
                for q in (0.0, 0.3, 1.0)
            ]
            # another final volume or counting on the same tuple needs its
            # own log-sum
            twins.append(dataclasses.replace(scenario, final_volume=nudged))
            other = (
                CountingModel.GIBBS_CORRECTED
                if scenario.model is CountingModel.DISTINGUISHABLE
                else CountingModel.DISTINGUISHABLE
            )
            twins.append(dataclasses.replace(scenario, model=other))
            for twin in twins:
                mixing_entropy(scenario)
                entry = _entry(scenario.compartments)
                assert entry is not None
                hit = mixing_entropy(twin)
                assert _entry(scenario.compartments) is entry
                fresh = mixing_entropy(_rebuilt(twin))
                assert repr(hit) == repr(fresh), twin

    def test_equal_scenarios_over_distinct_tuples_keep_their_own(self):
        comps = [GasCompartment("a", 30, 1.0, 1.0), GasCompartment("b", 10, 2.0, 1.0)]
        a = MixingScenario.from_compartments(comps)
        b = MixingScenario.from_compartments(comps)
        assert a == b and a.compartments is not b.compartments
        expected = repr(mixing_entropy(a))
        summaries = []
        for scenario in (a, b, dataclasses.replace(a), dataclasses.replace(b)):
            assert repr(mixing_entropy(scenario)) == expected
            summaries.append(_entry(scenario.compartments)[1])
        # each replaced scenario finds its own tuple's summary, though the
        # other tuple was summarized in between
        assert summaries[2] is summaries[0] and summaries[3] is summaries[1]
        assert summaries[0] is not summaries[1]

    def test_scenarios_evaluated_in_turn_check_no_compartment_again(self, monkeypatch):
        a, b = _wide_pair()
        passes = []
        items = _check.items

        def counted(name, value):
            if name == "compartments":
                passes.append(value)
            return items(name, value)

        monkeypatch.setattr(_check, "items", counted)
        reports = [mixing_entropy(s) for s in (a, b, a, b)]
        assert passes == []
        assert repr(reports[:2]) == repr(reports[2:])

    def test_rejected_tuple_is_not_remembered(self):
        scenario = two_gas_scenario()
        mixing_entropy(scenario)
        kept = _scenario._summaries
        hot = (GasCompartment("a", 1, 1.0, 1.0), GasCompartment("b", 1, 1.0, 2.0))
        for _ in range(2):
            with pytest.raises(DomainError, match="isothermal"):
                MixingScenario(compartments=hot)
        assert _scenario._summaries is kept

    def test_summaries_are_bounded_and_let_their_tuples_go(self):
        class Tracked(GasCompartment):  # GasCompartment's slots have no weakref
            pass

        tracked = Tracked("a", 5, 1.0, 1.0)
        alive = weakref.ref(tracked)
        scenario = MixingScenario.from_compartments((tracked,))
        del tracked, scenario
        for _ in range(_scenario._KEEP - 1):
            two_gas_scenario()
        gc.collect()
        assert alive() is not None  # a kept summary holds its tuple
        assert len(_scenario._summaries) == _scenario._KEEP
        two_gas_scenario()
        gc.collect()
        assert alive() is None
        assert len(_scenario._summaries) == _scenario._KEEP

    def test_every_sweep_point_shares_the_base_tuple(self):
        base = load_scenario(ROOT / "scenarios" / "partial_overlap.scenario").scenario
        points = [_sweep_point(base, i / 4) for i in range(5)]
        assert len(points) == 5
        assert all(p.compartments is base.compartments for p in points)


def _sweep_point(base, q):
    """The reference for a sweep point: ``base`` rebuilt with every species
    pair at overlap q, as a caller would build it."""
    return dataclasses.replace(base, overlaps=_overlaps(base, q))


class TestSweepReports:
    """_scenario._reports at a grid q, as sweep-overlap calls it, gives what
    mixing_entropy gives for the scenario rebuilt with every pair at q."""

    @staticmethod
    def _scenarios(rng, model, form, weighting):
        """One, two and three species; the three carry unequal overlaps,
        which mixing_entropy rejects and a sweep replaces."""
        T = rng.uniform(0.1, 10.0)
        for names in (["a"], ["a", "b"], ["a", "b", "c"]):
            comps = tuple(
                GasCompartment(
                    names[i] if i < len(names) else rng.choice(names),
                    rng.randint(1, 10**6),
                    rng.uniform(0.05, 8.0),
                    T,
                )
                for i in range(rng.randint(len(names), 5))
            )
            overlaps = tuple(
                SpeciesOverlap(a, b, q)
                for (a, b), q in zip(
                    itertools.combinations(names, 2), rng.sample([0.1, 0.4, 0.7], 3)
                )
            )
            yield MixingScenario.from_compartments(
                comps,
                overlaps=overlaps,
                model=model,
                stirling_form=form,
                weighting=weighting,
            )

    @pytest.mark.parametrize("model", list(CountingModel))
    @pytest.mark.parametrize("form", list(StirlingForm))
    @pytest.mark.parametrize("weighting", list(Weighting))
    def test_each_point_is_the_replaced_scenario(self, model, form, weighting):
        rng = random.Random(f"3101 {model.value} {form.value} {weighting.value}")
        for base in self._scenarios(rng, model, form, weighting):
            points = rng.randint(2, 12)
            grid = [i / (points - 1) for i in range(points)] + [rng.random()]
            reports = [
                mixing._report(base.model, base.stirling_form, *row)
                for row in _scenario._reports(base, grid)
            ]
            assert len(reports) == len(grid)
            for q, report in zip(grid, reports):
                expected = mixing_entropy(_sweep_point(base, q))
                assert repr(report) == repr(expected), (base, q)
            if len(base.species()) == 1:
                assert {r.overlap_applied for r in reports} == {1.0}
            if len(base.species()) == 3:
                with pytest.raises(DomainError, match="must all agree"):
                    mixing_entropy(base)


class _Sentinel(Exception):
    pass


class TestReusedSummaryReachesEveryFormula:
    """With a formula patched to raise, mixing_entropy on a replaced copy
    of a scenario already evaluated unpatched still raises: the reused
    summary holds no value any of them computes."""

    @pytest.mark.parametrize("form", list(StirlingForm))
    @pytest.mark.parametrize(
        "owner, name, models",
        [
            (StirlingForm, "_remainders", CORRECTED),
            (StirlingForm, "_log_factorials", CORRECTED),
            (_scenario, "_species_term", tuple(CountingModel)),
            (mixing, "_report", tuple(CountingModel)),
        ],
        ids=["_remainders", "_log_factorials", "_species_term", "_report"],
    )
    def test_patched_formula_is_reached_on_a_reuse(
        self, monkeypatch, owner, name, models, form
    ):
        def boom(*args):
            raise _Sentinel

        comps = (GasCompartment("a", 3, 1.0, 1.0), GasCompartment("b", 5, 2.0, 1.0))
        for model in models:
            scenario = MixingScenario.from_compartments(
                comps, model=model, stirling_form=form
            )
            mixing_entropy(scenario)  # unpatched, it succeeds
            kept = _scenario._summaries
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, boom)
                twin = dataclasses.replace(scenario)
                with pytest.raises(_Sentinel):
                    mixing_entropy(twin)
            assert _scenario._summaries is kept
