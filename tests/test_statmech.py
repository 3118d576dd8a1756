"""Partition sums, occupations, and the counting-model entropies."""

from __future__ import annotations

import math
import random
from functools import partial

import pytest

from mixent.combinatorics import StirlingForm, log_factorial_stirling
from mixent.errors import DomainError
from mixent.statmech import (
    CountingModel,
    EnsembleSpec,
    LevelSpec,
    entropy_from_levels,
    gibbs_shannon_entropy,
    helmholtz_free_energy,
    ideal_gas_entropy,
    internal_energy,
    log_partition_function,
    occupations,
    partition_function,
)

TWO_LEVELS = (LevelSpec(0.0, 1), LevelSpec(1.0, 1))


def random_ensemble(rng, max_levels=6):
    m = rng.randint(1, max_levels)
    levels = tuple(
        LevelSpec(rng.uniform(-2.0, 5.0), rng.randint(1, 4)) for _ in range(m)
    )
    return EnsembleSpec(levels=levels, N=rng.randint(1, 5000), T=rng.uniform(0.05, 10.0))


class TestPartitionFunction:
    def test_single_ground_level(self):
        assert partition_function([LevelSpec(0.0, 1)], 1.0) == 1.0

    def test_degeneracy_counts(self):
        assert partition_function([LevelSpec(0.0, 2)], 3.0) == pytest.approx(2.0)

    def test_two_level_value(self):
        z = partition_function(TWO_LEVELS, 1.0)
        assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
        assert z == pytest.approx(1.3678794411714423, rel=1e-12)

    def test_log_form_matches(self):
        z = partition_function(TWO_LEVELS, 0.7)
        assert log_partition_function(TWO_LEVELS, 0.7) == pytest.approx(
            math.log(z), rel=1e-14
        )

    def test_energy_shift_invariance(self):
        # shifting all levels by c multiplies Z by exp(-c/T)
        shifted = tuple(LevelSpec(lv.energy + 5.0, lv.degeneracy) for lv in TWO_LEVELS)
        z0 = log_partition_function(TWO_LEVELS, 2.0)
        z5 = log_partition_function(shifted, 2.0)
        assert z5 == pytest.approx(z0 - 2.5, rel=1e-12)

    def test_tiny_temperature_no_overflow(self):
        # deep negative level at tiny T: must stay finite via max-shift
        levels = (LevelSpec(-3.0, 1), LevelSpec(4.0, 2))
        logz = log_partition_function(levels, 1e-6)
        assert math.isfinite(logz)
        assert logz == pytest.approx(3.0e6, rel=1e-9)

    def test_empty_levels_rejected(self):
        with pytest.raises(DomainError):
            partition_function([], 1.0)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DomainError):
            partition_function(TWO_LEVELS, 0.0)
        with pytest.raises(DomainError):
            partition_function(TWO_LEVELS, -2.0)


class TestOccupations:
    def test_two_level_pinned_values(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1.0)
        n = occupations(ens)
        assert n[0] == pytest.approx(731.0585786300048, rel=1e-12)
        assert n[1] == pytest.approx(268.94142136999517, rel=1e-12)

    def test_sum_is_N_random(self):
        rng = random.Random(11)
        for _ in range(100):
            ens = random_ensemble(rng)
            n = occupations(ens)
            assert type(n) is tuple and len(n) == len(ens.levels)
            assert all(n_i >= 0 for n_i in n)
            assert math.fsum(n) == pytest.approx(ens.N, rel=1e-12)

    def test_tiny_temperature_collapses_to_ground(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=500, T=1e-6)
        n = occupations(ens)
        assert n[0] == pytest.approx(500.0, rel=1e-12)
        assert n[1] == pytest.approx(0.0, abs=1e-200)


class TestInternalEnergy:
    def test_ground_level_only(self):
        ens = EnsembleSpec(levels=(LevelSpec(0.0, 3),), N=100, T=1.0)
        assert internal_energy(ens) == 0.0

    def test_single_level_scales_with_N(self):
        ens = EnsembleSpec(levels=(LevelSpec(2.5, 1),), N=40, T=1.0)
        assert internal_energy(ens) == pytest.approx(100.0, rel=1e-12)

    def test_two_level_pinned_value(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1.0)
        assert internal_energy(ens) == pytest.approx(268.94142136999517, rel=1e-12)


class TestEntropyFromLevels:
    def test_single_level_distinguishable_is_zero(self):
        # one state per particle, no freedom: ln W = ln N!/N! ... all in f(N)
        ens = EnsembleSpec(levels=(LevelSpec(0.0, 1),), N=1234, T=1.0)
        r = entropy_from_levels(ens, CountingModel.DISTINGUISHABLE)
        assert r.S == 0.0

    def test_two_level_pinned_value(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1.0)
        r = entropy_from_levels(ens, CountingModel.DISTINGUISHABLE)
        assert r.S == pytest.approx(582.203108888218, rel=1e-12)
        assert r.per_particle == pytest.approx(0.582203108888218, rel=1e-12)

    def test_occupation_sum_equals_NlnZ_plus_U_over_T(self):
        # the distinguishable ln W collapses to N ln Z + U/T under two-term
        rng = random.Random(23)
        for _ in range(100):
            ens = random_ensemble(rng)
            via_occupations = entropy_from_levels(
                ens, CountingModel.DISTINGUISHABLE
            ).S
            via_Z = ens.N * log_partition_function(ens.levels, ens.T) + internal_energy(
                ens
            ) / ens.T
            # abs floor for ensembles whose entropy is legitimately ~0
            assert via_occupations == pytest.approx(via_Z, rel=1e-9, abs=1e-9)

    def test_distinguishable_minus_corrected_is_log_factorial(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1.0)
        for form in StirlingForm:
            dist = entropy_from_levels(ens, CountingModel.DISTINGUISHABLE, form).S
            corr = entropy_from_levels(ens, CountingModel.GIBBS_CORRECTED, form).S
            assert dist - corr == pytest.approx(
                form.log_factorial(1000.0), rel=1e-9
            )

    def test_bose_approximate_equals_corrected(self):
        # same expression reached through the dilute multiset count
        rng = random.Random(31)
        for _ in range(50):
            ens = random_ensemble(rng)
            bose = entropy_from_levels(ens, CountingModel.BOSE_APPROXIMATE).S
            corr = entropy_from_levels(ens, CountingModel.GIBBS_CORRECTED).S
            assert bose == corr

    def test_results_are_builtin_floats(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1.0)
        for model in CountingModel:
            r = entropy_from_levels(ens, model)
            assert type(r.S) is float
            assert type(r.per_particle) is float
        assert type(log_partition_function(TWO_LEVELS, 1.0)) is float
        assert type(internal_energy(ens)) is float

    def test_result_tags(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=10, T=1.0)
        r = entropy_from_levels(
            ens, CountingModel.BOSE_APPROXIMATE, StirlingForm.EXACT
        )
        assert r.model is CountingModel.BOSE_APPROXIMATE
        assert r.stirling_form is StirlingForm.EXACT

    def test_tiny_temperature_stays_finite(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=1000, T=1e-6)
        for model in CountingModel:
            r = entropy_from_levels(ens, model)
            assert math.isfinite(r.S)

    def test_unknown_model_rejected(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=10, T=1.0)
        with pytest.raises(DomainError):
            entropy_from_levels(ens, "distinguishable")


def reference_entropy(ensemble, model, form):
    """entropy_from_levels as first written: form.log_factorial level by level."""
    levels = ensemble.levels
    shift = min(lv.energy for lv in levels)
    weights = [
        lv.degeneracy * math.exp(-(lv.energy - shift) / ensemble.T) for lv in levels
    ]
    Z = math.fsum(weights)
    n = [ensemble.N * w / Z for w in weights]
    f = form.log_factorial
    core = math.fsum(
        n_i * math.log(lv.degeneracy) - f(n_i)
        for n_i, lv in zip(n, levels)
        if n_i > 0.0
    )
    if model is CountingModel.DISTINGUISHABLE:
        return f(float(ensemble.N)) + core
    return core


class TestLevelKernelsBitIdentical:
    """The per-form term expressions, with ln g taken once per distinct
    degeneracy, give exactly the per-level ``log_factorial`` and
    ``math.log(g)`` result, for every counting model and Stirling form, on
    repeated, all-distinct and 10**300 degeneracies."""

    @staticmethod
    def ensembles():
        rng = random.Random(4471)
        out = []
        for _ in range(60):
            m = rng.randint(1, 200)
            T = rng.choice((0.01, 0.3, 1.0, 7.0))
            # up to e/T = 800: weights past e/T ~ 745 underflow to exactly 0,
            # those just below it to subnormals
            levels = tuple(
                LevelSpec(rng.uniform(0.0, 800.0) * T, rng.choice((1, 2, 5, 10**6)))
                for _ in range(m)
            )
            N = rng.choice((1, 3, 250, 10**5, 10**9, 10**18))
            out.append(EnsembleSpec(levels=levels, N=N, T=T))
        # one occupied level among underflowed ones, and a single level
        out.append(EnsembleSpec(levels=((0.0, 2), (760.0, 3), (1e4, 1)), N=40, T=1.0))
        out.append(EnsembleSpec(levels=((5.0, 3),), N=7, T=0.5))
        # every degeneracy distinct, and degeneracies near 10**300
        distinct = rng.sample(range(1, 10**9), 1000)
        out.append(
            EnsembleSpec(
                levels=tuple(LevelSpec(rng.uniform(0.0, 8.0), g) for g in distinct),
                N=10**6,
                T=1.5,
            )
        )
        huge = (10**300, 10**300, 10**300 + 1, 3 * 10**300, 1, 2)
        out.append(
            EnsembleSpec(
                levels=tuple(LevelSpec(0.5 * i, g) for i, g in enumerate(huge)),
                N=10**5,
                T=1.0,
            )
        )
        return out

    @pytest.mark.parametrize("form", list(StirlingForm))
    @pytest.mark.parametrize("model", list(CountingModel))
    def test_equal_to_per_level_log_factorial(self, model, form):
        for ens in self.ensembles():
            r = entropy_from_levels(ens, model, form)
            expected = reference_entropy(ens, model, form)
            assert r.S == expected
            assert r.per_particle == expected / ens.N

    def test_ensembles_reach_underflow(self):
        ens_list = self.ensembles()
        zero = tiny = 0
        for ens in ens_list:
            shift = min(lv.energy for lv in ens.levels)
            for lv in ens.levels:
                w = math.exp(-(lv.energy - shift) / ens.T)
                zero += w == 0.0
                tiny += 0.0 < w < 1e-300
        assert zero > 100 and tiny > 5
        assert max(len(e.levels) for e in ens_list) > 150

    def test_unknown_form_rejected(self):
        ens = EnsembleSpec(levels=TWO_LEVELS, N=10, T=1.0)
        with pytest.raises(DomainError, match="unknown stirling form"):
            entropy_from_levels(ens, CountingModel.GIBBS_CORRECTED, "two-term")


class _Sentinel(Exception):
    pass


class TestOneLogFactorial:
    """Every ln n! in the package goes through StirlingForm._log_factorials:
    with it patched to raise, each entry point that takes an ln n! raises."""

    @staticmethod
    def calls():
        from mixent.mixing import (
            GasCompartment,
            MixingScenario,
            mixing_entropy,
            partition_change_entropy,
        )

        ens = EnsembleSpec(levels=TWO_LEVELS, N=10, T=1.0)
        gas = (GasCompartment("a", 3, 1.0, 1.0), GasCompartment("b", 5, 2.0, 1.0))
        corrected = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)
        for form in StirlingForm:
            yield partial(form.log_factorial, 4.0)
            for model in CountingModel:
                yield partial(entropy_from_levels, ens, model, form)
            for model in corrected:
                yield partial(ideal_gas_entropy, 10, 1.0, 1.0, model, form)
                yield partial(partition_change_entropy, 10, 1.0, 1.0, 2, model, form)
                scenario = MixingScenario.from_compartments(
                    gas, model=model, stirling_form=form
                )
                yield partial(mixing_entropy, scenario)

    def test_patched_column_method_is_reached(self, monkeypatch):
        def boom(self, xs):
            raise _Sentinel

        calls = list(self.calls())
        for call in calls:
            call()  # unpatched, every call succeeds
        monkeypatch.setattr(StirlingForm, "_log_factorials", boom)
        for call in calls:
            with pytest.raises(_Sentinel):
                call()
        assert len(calls) == 3 * (1 + 3 + 2 * 3)


class TestOneRemainder:
    """Every entropy difference and log-only count goes through
    StirlingForm._remainders: with it patched to raise, each one raises."""

    @staticmethod
    def calls():
        from mixent.combinatorics import (
            binomial,
            multiplicity_bose_exact,
            multiplicity_distinguishable,
            multiplicity_gibbs_corrected,
        )
        from mixent.mixing import (
            GasCompartment,
            MixingScenario,
            mixing_entropy,
            partition_change_entropy,
        )

        gas = (GasCompartment("a", 3, 1.0, 1.0), GasCompartment("b", 5, 2.0, 1.0))
        corrected = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)
        for form in StirlingForm:
            for model in corrected:
                yield partial(partition_change_entropy, 10, 1.0, 1.0, 2, model, form)
                scenario = MixingScenario.from_compartments(
                    gas, model=model, stirling_form=form
                )
                yield partial(mixing_entropy, scenario)
        yield partial(binomial, 10, 3, exact_limit=0)
        yield partial(multiplicity_bose_exact, 4, 3, exact_limit=0)
        yield partial(multiplicity_distinguishable, (1, 2), (2, 1), exact_limit=0)
        yield partial(multiplicity_gibbs_corrected, (1, 2), (2, 1), exact_limit=0)

    def test_patched_column_method_is_reached(self, monkeypatch):
        def boom(self, xs):
            raise _Sentinel

        calls = list(self.calls())
        for call in calls:
            call()  # unpatched, every call succeeds
        monkeypatch.setattr(StirlingForm, "_remainders", boom)
        for call in calls:
            with pytest.raises(_Sentinel):
                call()
        assert len(calls) == 3 * 2 * 2 + 4


class TestIdealGasEntropy:
    def test_volume_doubling_distinguishable(self):
        s1 = ideal_gas_entropy(1000, 1.0, 1.0, CountingModel.DISTINGUISHABLE).S
        s2 = ideal_gas_entropy(1000, 2.0, 1.0, CountingModel.DISTINGUISHABLE).S
        assert s2 - s1 == pytest.approx(1000 * math.log(2), abs=1e-9)

    def test_corrected_two_term_closed_form(self):
        N, V, T = 700, 3.0, 2.0
        r = ideal_gas_entropy(N, V, T, CountingModel.GIBBS_CORRECTED)
        expected = N * math.log(V / N) + 1.5 * N * math.log(T) + N
        assert r.S == pytest.approx(expected, rel=1e-12)

    def test_extensivity_of_corrected_form(self):
        N, V, T = 100, 1.0, 1.0
        base = ideal_gas_entropy(N, V, T, CountingModel.GIBBS_CORRECTED).S
        for lam in (2, 3, 10):
            scaled = ideal_gas_entropy(
                lam * N, lam * V, T, CountingModel.GIBBS_CORRECTED
            ).S
            assert scaled == pytest.approx(lam * base, rel=1e-12, abs=1e-12)

    def test_distinguishable_extensivity_defect(self):
        N, V, T = 100, 1.0, 1.0
        base = ideal_gas_entropy(N, V, T, CountingModel.DISTINGUISHABLE).S
        doubled = ideal_gas_entropy(
            2 * N, 2 * V, T, CountingModel.DISTINGUISHABLE
        ).S
        assert doubled - 2 * base == pytest.approx(
            2 * N * math.log(2), rel=1e-12
        )

    def test_constant_offsets_only(self):
        a = ideal_gas_entropy(50, 1.0, 1.0, CountingModel.GIBBS_CORRECTED).S
        b = ideal_gas_entropy(
            50, 1.0, 1.0, CountingModel.GIBBS_CORRECTED, constant=7.0
        ).S
        assert b - a == pytest.approx(7.0, rel=1e-12)

    def test_stirling_form_changes_corrected_only(self):
        for model in (CountingModel.DISTINGUISHABLE,):
            two = ideal_gas_entropy(90, 1.0, 1.0, model, StirlingForm.TWO_TERM).S
            exact = ideal_gas_entropy(90, 1.0, 1.0, model, StirlingForm.EXACT).S
            assert two == exact
        two = ideal_gas_entropy(
            90, 1.0, 1.0, CountingModel.GIBBS_CORRECTED, StirlingForm.TWO_TERM
        ).S
        exact = ideal_gas_entropy(
            90, 1.0, 1.0, CountingModel.GIBBS_CORRECTED, StirlingForm.EXACT
        ).S
        assert exact != two
        assert two - exact == pytest.approx(
            math.lgamma(91) - log_factorial_stirling(90), rel=1e-9
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ideal_gas_entropy(0, 1.0, 1.0, CountingModel.GIBBS_CORRECTED)
        with pytest.raises(DomainError):
            ideal_gas_entropy(10, -1.0, 1.0, CountingModel.GIBBS_CORRECTED)
        with pytest.raises(DomainError):
            ideal_gas_entropy(10, 1.0, 0.0, CountingModel.GIBBS_CORRECTED)
        with pytest.raises(DomainError):
            ideal_gas_entropy(10.5, 1.0, 1.0, CountingModel.GIBBS_CORRECTED)


class TestGibbsShannonEntropy:
    def test_pure_state_is_zero(self):
        assert gibbs_shannon_entropy([1.0]) == 0.0
        assert gibbs_shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert gibbs_shannon_entropy([0.5, 0.5]) == pytest.approx(
            math.log(2), rel=1e-15
        )

    def test_uniform_is_log_W(self):
        for W in (2, 3, 10, 64):
            p = [1.0 / W] * W
            assert gibbs_shannon_entropy(p) == pytest.approx(
                math.log(W), rel=1e-12
            )

    def test_uniform_maximizes(self):
        rng = random.Random(41)
        for _ in range(1000):
            m = rng.randint(2, 8)
            raw = [rng.random() for _ in range(m)]
            total = sum(raw)
            p = [x / total for x in raw]
            assert gibbs_shannon_entropy(p) <= math.log(m) + 1e-12

    def test_rejects_bad_vectors(self):
        with pytest.raises(DomainError):
            gibbs_shannon_entropy([0.5, 0.6])
        with pytest.raises(DomainError):
            gibbs_shannon_entropy([1.5, -0.5])
        with pytest.raises(DomainError):
            gibbs_shannon_entropy([])
        for bad in (0.5, [[0.5], [0.5]], [0.5, math.nan], [math.inf, 0.0]):
            with pytest.raises(DomainError):
                gibbs_shannon_entropy(bad)

    def test_any_iterable_of_reals(self):
        p = [0.125, 0.375, 0.5]
        expected = gibbs_shannon_entropy(p)
        assert gibbs_shannon_entropy(x for x in p) == expected
        assert gibbs_shannon_entropy((1, 0)) == 0.0

    def test_numpy_arrays_read_as_iterables(self):
        np = pytest.importorskip("numpy")
        p = [0.125, 0.375, 0.5]
        expected = gibbs_shannon_entropy(p)
        assert gibbs_shannon_entropy(np.array(p)) == expected
        assert gibbs_shannon_entropy(np.array(p, dtype=np.float32)) == expected
        for bad in (
            np.array(1.0),
            np.array([[0.5, 0.5]]),
            np.array([[1.0]]),
            [np.array([1.0])],
            np.array([0.5, 0.5, -0.0, math.nan]),
        ):
            with pytest.raises(DomainError):
                gibbs_shannon_entropy(bad)


class TestHelmholtzFreeEnergy:
    def test_single_ground_level(self):
        # U = 0 and S = 0, so F = 0
        ens = EnsembleSpec(levels=(LevelSpec(0.0, 1),), N=77, T=3.0)
        assert helmholtz_free_energy(ens, CountingModel.DISTINGUISHABLE) == 0.0

    def test_consistency_with_parts(self):
        rng = random.Random(53)
        for _ in range(50):
            ens = random_ensemble(rng)
            for model in CountingModel:
                F = helmholtz_free_energy(ens, model)
                U = internal_energy(ens)
                S = entropy_from_levels(ens, model).S
                assert U - F == pytest.approx(ens.T * S, rel=1e-9, abs=1e-9)

    def test_decreases_with_temperature(self):
        # distinguishable two-term gives F = -N T ln Z, decreasing in T
        values = [
            helmholtz_free_energy(
                EnsembleSpec(levels=TWO_LEVELS, N=100, T=t),
                CountingModel.DISTINGUISHABLE,
            )
            for t in (0.5, 1.0, 2.0, 4.0)
        ]
        assert values == sorted(values, reverse=True)
        assert values[1] == pytest.approx(
            -100 * log_partition_function(TWO_LEVELS, 1.0), rel=1e-9
        )


class TestSpecValidation:
    def test_level_tuple_coercion(self):
        ens = EnsembleSpec(levels=((0.0, 1), (1.0, 2)), N=5, T=1.0)
        assert ens.levels[1].degeneracy == 2

    def test_bad_specs_rejected(self):
        with pytest.raises(DomainError):
            LevelSpec(float("nan"), 1)
        with pytest.raises(DomainError):
            LevelSpec(0.0, 0)
        with pytest.raises(DomainError):
            EnsembleSpec(levels=(), N=5, T=1.0)
        with pytest.raises(DomainError):
            EnsembleSpec(levels=TWO_LEVELS, N=0, T=1.0)
        with pytest.raises(DomainError):
            EnsembleSpec(levels=TWO_LEVELS, N=5, T=-1.0)

    @pytest.mark.parametrize(
        "item", [5.0, None, (), (1.0, 1, 2), [0.0, 1, 1]], ids=repr
    )
    def test_level_item_that_is_no_level_names_itself(self, item):
        with pytest.raises(DomainError) as exc:
            EnsembleSpec(levels=[(0.0, 1), item], N=1, T=1.0)
        assert str(exc.value) == (
            f"levels must be LevelSpec or (energy[, degeneracy]) tuples, got {item!r}"
        )

    def test_level_item_values_keep_their_messages(self):
        with pytest.raises(DomainError, match="^degeneracy must be >= 1, got 0$"):
            EnsembleSpec(levels=[(0.0, 0)], N=1, T=1.0)
        with pytest.raises(DomainError, match="^level energy must be a real number"):
            EnsembleSpec(levels=["ab"], N=1, T=1.0)

    def test_ints_beyond_float_range_rejected(self):
        # float(10**400) overflows; the validators say so as a DomainError
        EnsembleSpec(levels=TWO_LEVELS, N=10**308, T=1.0)
        with pytest.raises(DomainError, match="fit a float"):
            EnsembleSpec(levels=TWO_LEVELS, N=10**400, T=1.0)

    def test_ideal_gas_entropy_rejects_ints_beyond_float_range(self):
        with pytest.raises(DomainError, match="fit a float"):
            ideal_gas_entropy(10**400, 1.0, 1.0, CountingModel.GIBBS_CORRECTED)


class TestEntropyBeyondFloatRange:
    """N fits a float but the entropy does not: a DomainError, not -inf."""

    @pytest.mark.parametrize("form", list(StirlingForm))
    @pytest.mark.parametrize(
        "model", [CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE]
    )
    def test_ideal_gas_entropy(self, model, form):
        with pytest.raises(DomainError, match="entropy overflows a float"):
            ideal_gas_entropy(10**308, 1, 1, model, form)

    def test_ideal_gas_entropy_distinguishable_still_finite(self):
        # N ln V + (3/2) N ln T stays below the float maximum here
        r = ideal_gas_entropy(10**308, 2.0, 1.0, CountingModel.DISTINGUISHABLE)
        assert r.S == 10**308 * math.log(2.0)

    def test_entropy_from_levels_sum_overflow(self):
        # n ln n of the one level is finite, ln N! + the level sum is not
        ens = EnsembleSpec(levels=((0.0, 1),), N=10**306, T=1.0)
        with pytest.raises(DomainError, match="entropy overflows a float"):
            entropy_from_levels(ens, CountingModel.DISTINGUISHABLE, StirlingForm.EXACT)

    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_entropy_from_levels_occupation_overflow(self, form):
        # N * g overflows to an infinite occupation of the ground level
        ens = EnsembleSpec(levels=((0.0, 4), (1.0, 1)), N=10**308, T=1.0)
        with pytest.raises(DomainError, match="entropy overflows a float"):
            entropy_from_levels(ens, CountingModel.GIBBS_CORRECTED, form)
