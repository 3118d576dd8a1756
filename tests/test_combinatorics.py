"""Counting formulas against small exhaustive enumerations and identities."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy
import pytest

from mixent import _check, combinatorics
from mixent.combinatorics import (
    DEFAULT_EXACT_LIMIT,
    MAX_EXACT_LIMIT,
    Count,
    OccupationVector,
    StirlingForm,
    _log_multinomial,
    _multinomial,
    binomial,
    classical_symbol_states,
    log_factorial_exact,
    log_factorial_stirling,
    multiplicity_bose_approx,
    multiplicity_bose_exact,
    multiplicity_distinguishable,
    multiplicity_gibbs_corrected,
    multiplicity_gibbs_corrected_exact,
)
from mixent.errors import DomainError


# Counts pickled at protocols 0 and 5 by the code before Count checked its
# fields: (from_int(792), from_int(0), log_only(1.5), the log-only
# _multinomial((3, 4), (2, 5), 0) and the integral corrected count of
# ((2, 2), (2, 3)))
PICKLED_BEFORE_THE_CHECKS = (
    b"(ccopy_reg\n_reconstructor\np0\n(cmixent.combinatorics\nCount\np1\nc__builtin__\n"
    b"object\np2\nNtp3\nRp4\n(dp5\nVlog_value\np6\nF6.674561391814426\nsVvalue\np7\n"
    b"I792\nsbg0\n(g1\ng2\nNtp8\nRp9\n(dp10\ng6\nF-inf\nsg7\nI0\nsbg0\n(g1\ng2\n"
    b"Ntp11\nRp12\n(dp13\ng6\nF1.5\nsg7\nNsbg0\n(g1\ng2\nNtp14\nRp15\n(dp16\ng6\n"
    b"F12.072541252905651\nsg7\nNsbg0\n(g1\ng2\nNtp17\nRp18\n(dp19\ng6\n"
    b"F2.1972245773362205\nsg7\nI9\nsbtp20\n.",
    bytes.fromhex(
        "800595af00000000000000288c146d6978656e742e636f6d62696e61746f72696373948c05"
        "436f756e749493942981947d94288c096c6f675f76616c75659447401ab2c038b3f2e58c05"
        "76616c7565944d1803756268022981947d9428680547fff000000000000068064b00756268"
        "022981947d94286805473ff800000000000068064e756268022981947d9428680547402825"
        "242089ae6868064e756268022981947d9428680547400193ea7aad030d68064b0975627494"
        "2e"
    ),
)


def _counts():
    return (
        Count.from_int(792),
        Count.from_int(0),
        Count.log_only(1.5),
        _multinomial((3, 4), (2, 5), 0),
        multiplicity_gibbs_corrected((2, 2), (2, 3)),
    )


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


class TestCount:
    def test_from_int(self):
        c = Count.from_int(12)
        assert c.value == 12
        assert c.log_value == pytest.approx(math.log(12), rel=1e-15)
        assert not c.is_log_only

    def test_zero_sentinel(self):
        assert Count.from_int(0).log_value == float("-inf")

    def test_log_only(self):
        c = Count.log_only(7.5)
        assert c.is_log_only
        assert c.value is None

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Count.from_int(-1)

    def test_nan_log_rejected(self):
        with pytest.raises(DomainError, match="NaN"):
            Count.log_only(math.nan)

    def test_constructor_stores_checked_values(self):
        class Index:
            def __index__(self):
                return 4

        c = Count(3, Index())
        assert (c.log_value, c.value) == (3.0, 4)
        assert (type(c.log_value), type(c.value)) == (float, int)
        assert Count.log_only(-2) == Count(-2.0) == Count(-2.0, None)

    def test_only_exact_counts_skip_the_constructor_checks(self, monkeypatch):
        def refuse(self):
            raise AssertionError("checked by the constructor")

        monkeypatch.setattr(Count, "__post_init__", refuse)
        assert Count.from_int(12).value == 12
        assert _multinomial((2, 1), (2, 1), DEFAULT_EXACT_LIMIT).value == 12
        for build in (Count, Count.log_only):
            with pytest.raises(AssertionError, match="constructor"):
                build(1.5)
        with pytest.raises(AssertionError, match="constructor"):
            _multinomial((2, 1), (2, 1), 0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_copy_and_deepcopy_keep_every_count(self, protocol):
        counts = _counts() + (_multinomial((3, 4), (2, 5), DEFAULT_EXACT_LIMIT),)
        assert [c.value for c in counts] == [792, 0, None, None, 9, 175000]
        for count in counts:
            twins = (
                pickle.loads(pickle.dumps(count, protocol=protocol)),
                copy.copy(count),
                copy.deepcopy(count),
            )
            for twin in twins:
                assert twin == count and repr(twin) == repr(count)
                assert type(twin.value) is type(count.value)

    @pytest.mark.parametrize("data", PICKLED_BEFORE_THE_CHECKS, ids=["p0", "p5"])
    def test_counts_pickled_before_the_checks_load(self, data):
        back = pickle.loads(data)
        assert back == _counts()
        assert repr(back) == repr(_counts())

    def test_occupation_vector(self):
        occ = OccupationVector((2, 3))
        assert occ.total == 5
        assert (len(occ), list(occ)) == (2, [2, 3])
        with pytest.raises(DomainError, match="at least one cell"):
            OccupationVector(())


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2).value == 6
        assert binomial(9, 0).value == 1
        assert binomial(9, 9).value == 1

    def test_against_subset_enumeration(self):
        # brute force: count 5-element subsets of a 12-element set
        subsets = sum(1 for _ in itertools.combinations(range(12), 5))
        assert subsets == 792
        assert binomial(12, 5).value == 792

    def test_symmetry_exhaustive(self):
        for N in range(65):
            for n in range(N + 1):
                assert binomial(N, n).value == binomial(N, N - n).value

    def test_pascal_rule_exhaustive(self):
        for N in range(1, 65):
            for n in range(1, N):
                assert (
                    binomial(N, n).value
                    == binomial(N - 1, n - 1).value + binomial(N - 1, n).value
                )

    @pytest.mark.parametrize("N", [64, 500, 5000])
    def test_row_sums_to_a_power_of_two(self, N):
        # past the oracle's reach; exact all the way to the default limit
        assert sum(binomial(N, n).value for n in range(N + 1)) == 2**N

    def test_log_only_above_limit(self):
        c = binomial(6000, 3000)
        assert c.is_log_only
        expected = (
            math.lgamma(6001) - 2 * math.lgamma(3001)
        )
        assert c.log_value == pytest.approx(expected, rel=1e-12)

    def test_exact_limit_raised(self):
        c = binomial(6000, 3000, exact_limit=6000)
        assert c.value == math.comb(6000, 3000)
        # an integer that is not an int converts to the same limit
        assert binomial(6000, 3000, exact_limit=numpy.int64(6000)) == c

    def test_n_greater_than_N_rejected(self):
        with pytest.raises(DomainError):
            binomial(3, 5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            binomial(-1, 0)
        with pytest.raises(DomainError):
            binomial(4, -2)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            binomial(4.0, 2)

    def test_exact_limit_cap(self):
        with pytest.raises(DomainError):
            binomial(10, 5, exact_limit=MAX_EXACT_LIMIT + 1)


class TestMultiplicityDistinguishable:
    def test_no_degeneracy_is_multinomial(self):
        assert multiplicity_distinguishable((2, 1), (1, 1)).value == 3
        assert multiplicity_distinguishable((2, 2), (1, 1)).value == 6

    def test_against_assignment_enumeration(self):
        # three labeled particles over substates {0,1} (cell A) and {2} (cell B);
        # count assignments with exactly 2 in A and 1 in B
        hits = 0
        total = 0
        for assignment in itertools.product(range(3), repeat=3):
            total += 1
            in_a = sum(1 for s in assignment if s < 2)
            if in_a == 2:
                hits += 1
        assert total == 27
        assert hits == 12
        assert multiplicity_distinguishable((2, 1), (2, 1)).value == 12

    def test_multinomial_theorem_sum(self):
        # summing the multiplicity over all occupations recovers (sum g)^N
        for N in range(9):
            for degs in [(1, 1), (2, 1), (2, 2), (1, 2, 3), (1, 1, 1, 2)]:
                total = sum(
                    multiplicity_distinguishable(occ, degs).value
                    for occ in compositions(N, len(degs))
                )
                assert total == sum(degs) ** N
        # and well past the oracle's reach: 861 occupations of 40 particles
        total = sum(
            multiplicity_distinguishable(occ, (1, 2, 3)).value
            for occ in compositions(40, 3)
        )
        assert total == 6**40

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            multiplicity_distinguishable((1, 2), (2,))

    def test_zero_degeneracy_rejected(self):
        with pytest.raises(DomainError):
            multiplicity_distinguishable((1, 2), (1, 0))

    def test_log_only_above_limit(self):
        c = multiplicity_distinguishable((4000, 3000), (2, 3))
        assert c.is_log_only
        expected = (
            math.lgamma(7001)
            + 4000 * math.log(2)
            + 3000 * math.log(3)
            - math.lgamma(4001)
            - math.lgamma(3001)
        )
        assert c.log_value == pytest.approx(expected, rel=1e-12)


class TestMultiplicityGibbsCorrected:
    def test_single_particle(self):
        c = multiplicity_gibbs_corrected((1,), (1,))
        assert c.value == 1
        assert c.log_value == 0.0

    def test_rational_case_is_log_only(self):
        c = multiplicity_gibbs_corrected((2,), (1,))
        assert c.is_log_only
        assert c.log_value == pytest.approx(math.log(0.5), rel=1e-12)
        assert multiplicity_gibbs_corrected_exact((2,), (1,)) == Fraction(1, 2)

    def test_integral_case_keeps_value(self):
        c = multiplicity_gibbs_corrected((2, 1), (2, 1))
        assert c.value == 2
        assert c.log_value == pytest.approx(math.log(2), rel=1e-12)

    def test_definitional_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 4)
            occ = tuple(rng.randint(0, 6) for _ in range(m))
            if sum(occ) == 0:
                occ = (1,) + occ[1:]
            degs = tuple(rng.randint(1, 5) for _ in range(m))
            dist = multiplicity_distinguishable(occ, degs)
            corrected = multiplicity_gibbs_corrected(occ, degs)
            expected = dist.log_value - log_factorial_exact(sum(occ))
            assert abs(corrected.log_value - expected) <= 1e-12

    def test_log_is_good_to_a_few_ulps_of_its_larger_term(self):
        """log_value is ln W_dist - ln N!, so its error is a few ulps of the
        larger of the two: at N = 1e16, g = floor(N / e) the true -19.93
        reads 0.0, 0.31 of one ulp (64) of ln N!.  The reference is 50-digit
        mpmath on the ints themselves."""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2021)
        cases = [((10**16,), (3678794411714423,), 0)]
        for _ in range(300):
            m = rng.randint(1, 4)
            ns = [rng.randint(0, 10 ** rng.randint(0, 17)) for _ in range(m)]
            ns[0] = ns[0] or 1
            los = [max(1, int(n / math.e)) for n in ns]  # g from about n / e up
            gs = tuple(rng.randint(lo, lo * 10 ** rng.randint(0, 80)) for lo in los)
            cases += [(tuple(ns), gs, 0), (tuple(ns), gs, DEFAULT_EXACT_LIMIT)]
        worst = 0.0
        with mpmath.workdps(50):
            for ns, gs, limit in cases:
                got = multiplicity_gibbs_corrected(ns, gs, exact_limit=limit).log_value
                want = mpmath.fsum(
                    n * mpmath.log(g) - mpmath.loggamma(n + 1) for n, g in zip(ns, gs)
                )
                ln_N_factorial = mpmath.loggamma(sum(ns) + 1)
                ln_dist = abs(float(want + ln_N_factorial))
                scale = max(ln_dist, float(ln_N_factorial), 1.0)
                worst = max(worst, float(abs(got - want)) / math.ulp(scale))
        assert worst <= 4.0

    def test_exact_rational_matches_fraction_of_counts(self):
        occ, degs = (3, 2, 0), (2, 3, 1)
        frac = multiplicity_gibbs_corrected_exact(occ, degs)
        dist = multiplicity_distinguishable(occ, degs)
        assert frac == Fraction(dist.value, math.factorial(5))

    def test_exact_rational_size_cap(self):
        with pytest.raises(DomainError):
            multiplicity_gibbs_corrected_exact((MAX_EXACT_LIMIT + 1,), (2,))


class TestExactCountKernels:
    """The binomial-chain and divmod counts equal the closed forms as first
    written, value and log, bit for bit."""

    @staticmethod
    def reference_distinguishable(occ, degs):
        """N! * prod(g^n) // prod(n!)"""
        numerator = math.factorial(sum(occ))
        for n_i, g_i in zip(occ, degs):
            numerator *= g_i**n_i
        return numerator // math.prod(math.factorial(n_i) for n_i in occ)

    @staticmethod
    def reference_gibbs(dist_value, N):
        """Fraction(dist, N!), kept only when it is an integer."""
        ratio = Fraction(dist_value, math.factorial(N))
        return int(ratio) if ratio.denominator == 1 else None

    @staticmethod
    def cases():
        rng = random.Random(20240611)
        limit = DEFAULT_EXACT_LIMIT
        cases = [
            ((0,), (1,)),  # N = 0
            ((0, 0, 0), (2, 3, 1)),
            ((7,), (3,)),  # a single cell
            ((1,), (9,)),
            ((limit,), (2,)),  # N at the exact limit
            ((0, limit - 1, 1), (1, 3, 2)),
            ((2, 0, 3, 0), (6, 4, 5, 1)),  # zeros between occupied cells
            ((1, 1, 1, 1), (2, 3, 4, 5)),  # integral: prod(g)
            ((2, 2), (6, 10)),  # integral: 36 * 100 / 4
        ]
        for _ in range(120):
            m = rng.randint(1, 6)
            N = rng.choice((rng.randint(0, 12), rng.randint(0, 300), rng.randint(0, limit)))
            cuts = sorted(rng.randint(0, N) for _ in range(m - 1))
            bounds = [0, *cuts, N]
            occ = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            degs = tuple(rng.choice((1, 2, 3, 7, 12, 1000)) for _ in range(m))
            cases.append((occ, degs))
        return cases

    def test_distinguishable_matches_closed_form(self):
        for occ, degs in self.cases():
            expected = self.reference_distinguishable(occ, degs)
            assert multiplicity_distinguishable(occ, degs) == Count.from_int(expected)

    def test_gibbs_corrected_matches_fraction_over_N_factorial(self):
        integral = fractional = 0
        for occ, degs in self.cases():
            N = sum(occ)
            dist = self.reference_distinguishable(occ, degs)
            expected = self.reference_gibbs(dist, N)
            got = multiplicity_gibbs_corrected(occ, degs)
            assert got.value == expected, (occ, degs)
            assert got.log_value == math.log(dist) - log_factorial_exact(N)
            integral += expected is not None
            fractional += expected is None
        assert integral >= 5 and fractional >= 50

    @pytest.mark.parametrize("exact_limit", [0, 6, 7, 100])
    def test_exact_limit_boundary(self, exact_limit):
        occ, degs = (3, 0, 4), (2, 5, 3)  # N = 7
        dist = multiplicity_distinguishable(occ, degs, exact_limit=exact_limit)
        gibbs = multiplicity_gibbs_corrected(occ, degs, exact_limit=exact_limit)
        if exact_limit >= 7:
            value = self.reference_distinguishable(occ, degs)
            assert dist == Count.from_int(value)
            assert gibbs.value == self.reference_gibbs(value, 7)
        else:
            assert dist.is_log_only and gibbs.is_log_only
        assert gibbs.log_value == dist.log_value - log_factorial_exact(7)


class TestCheckedOnce:
    """A counting call checks each input once: a plain iterable of cells
    builds no OccupationVector, and an exact count is not checked again."""

    def test_plain_cells_build_no_occupation_vector(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an OccupationVector was built")

        monkeypatch.setattr(OccupationVector, "__post_init__", refuse)
        assert multiplicity_distinguishable((2, 1), (2, 1)).value == 12
        assert multiplicity_distinguishable([0, 3], iter([5, 2]), exact_limit=0).is_log_only
        assert multiplicity_gibbs_corrected((2, 1), (2, 1)).value == 2
        assert multiplicity_gibbs_corrected_exact((2, 1), (2, 1)) == 2

    def test_multinomial_count_is_from_int_of_its_value(self, monkeypatch):
        rng = random.Random(1801)
        cases = [((0,), (1,)), ((2,), (0,)), ((0, 3), (4, 0)), ((1, 2), (0, 5))]
        for _ in range(300):
            m = rng.randint(1, 4)
            cases.append(
                (
                    tuple(rng.randint(0, 30) for _ in range(m)),
                    tuple(rng.randint(0, 5) for _ in range(m)),
                )
            )

        def refuse(*args):
            raise AssertionError("an exact count was checked again")

        monkeypatch.setattr(Count, "from_int", refuse)
        monkeypatch.setattr(_check, "integer", refuse)
        got = [_multinomial(ns, gs, DEFAULT_EXACT_LIMIT) for ns, gs in cases]
        monkeypatch.undo()
        zeros = 0
        for count, (ns, gs) in zip(got, cases):
            value = TestExactCountKernels.reference_distinguishable(ns, gs)
            want = Count.from_int(value)
            assert count == want and type(count.value) is int, (ns, gs)
            assert repr(count.log_value) == repr(want.log_value)
            zeros += value == 0
        assert zeros >= 20


class TestGibbsIntegralityBoundary:
    """The corrected count skips the exact division when log_value < -1,
    since an integral quotient is at least 1; every count still equals the
    one formed by always dividing, value and log, bit for bit."""

    @staticmethod
    def divmod_reference(occ, degs, exact_limit):
        """The count formed with prod(g^n) divmod prod(n!) whenever N fits."""
        dist = multiplicity_distinguishable(occ, degs, exact_limit=exact_limit)
        log_value = dist.log_value - log_factorial_exact(sum(occ))
        if dist.value is not None:
            value, remainder = divmod(
                math.prod(g**n for n, g in zip(occ, degs)),
                math.prod(math.factorial(n) for n in occ),
            )
            if remainder == 0:
                return Count(log_value=log_value, value=value)
        return Count.log_only(log_value)

    @staticmethod
    def small_cases():
        """Every occupation of 1-3 cells with n_i <= 5 over g_i in 1..3."""
        for m in (1, 2, 3):
            for occ in itertools.product(range(6), repeat=m):
                for degs in itertools.product((1, 2, 3), repeat=m):
                    yield occ, degs

    @pytest.mark.parametrize("exact_limit", [0, 100, DEFAULT_EXACT_LIMIT])
    @pytest.mark.parametrize(
        "occ, degs, value",
        [
            ((1, 1, 1), (1, 1, 1), 1),
            ((0,), (1,), 1),
            ((0, 0, 0), (2, 3, 1), 1),
            ((2,), (2,), 2),
            ((3,), (6,), 36),
            ((2,), (1,), None),  # 1/2, ln = -0.69
            ((3,), (1,), None),  # 1/6, ln = -1.79
            ((5,), (2,), None),  # 32/120, ln = -1.32
        ],
    )
    def test_quotients_near_one(self, occ, degs, value, exact_limit):
        got = multiplicity_gibbs_corrected(occ, degs, exact_limit=exact_limit)
        assert got == self.divmod_reference(occ, degs, exact_limit)
        assert got.value == (value if sum(occ) <= exact_limit else None)

    @pytest.mark.parametrize("exact_limit", [0, 100, DEFAULT_EXACT_LIMIT])
    def test_small_occupations_match_divmod(self, exact_limit):
        near_zero = integral = 0
        for occ, degs in self.small_cases():
            got = multiplicity_gibbs_corrected(occ, degs, exact_limit=exact_limit)
            assert got == self.divmod_reference(occ, degs, exact_limit), (occ, degs)
            near_zero += -2.0 <= got.log_value <= 0.0
            integral += got.value is not None
        assert near_zero >= 100
        assert integral >= (500 if exact_limit else 0)

    @pytest.mark.parametrize("exact_limit", [0, 100, DEFAULT_EXACT_LIMIT])
    def test_wide_quotients_below_one(self, exact_limit):
        # N at the default limit over few small cells: the quotient is far
        # below 1, its log far below -1
        for occ, degs in [
            ((2500, 2500), (2, 3)),
            ((1000, 1000, 1000, 1000, 1000), (1, 2, 3, 5, 7)),
            ((60, 40), (3, 1)),
        ]:
            got = multiplicity_gibbs_corrected(occ, degs, exact_limit=exact_limit)
            assert got == self.divmod_reference(occ, degs, exact_limit)
            assert got.is_log_only and got.log_value < -1.0


class TestLogOnlyCounts:
    """Above the exact limit every count is the fsum of the per-cell terms
    n ln g and the log-multinomial under EXACT, itself one fsum of the
    terms n ln(N/n) (-n log1p(-(N - n)/N) above N/2), r(N) and -r(n)."""

    def test_terms_are_added_by_fsum(self):
        occ, degs = (1, 4, 6), (2, 3, 1)  # 11! / (1! 4! 6!) * 2 * 3**4 = 374220
        N = sum(occ)
        r_N, *rs = StirlingForm.EXACT._remainders([float(n) for n in (N, *occ)])
        terms = [
            -n * math.log1p((n - N) / N) if 2 * n > N else n * math.log(N / n)
            for n in occ
        ]
        terms += [r_N] + [-r for r in rs]
        cells = [n * math.log(g) for n, g in zip(occ, degs)]
        cells.append(math.fsum(terms))
        for column in (terms, cells):
            left_to_right = 0.0
            for term in column:
                left_to_right += term
            assert left_to_right != math.fsum(column)  # the case tells them apart
        assert _log_multinomial(occ, StirlingForm.EXACT) == math.fsum(terms)
        count = multiplicity_distinguishable(occ, degs, exact_limit=0)
        assert count.log_value == math.fsum(cells)
        assert multiplicity_distinguishable(occ, degs).value == 374220

    @pytest.mark.parametrize("exact_limit", [0, DEFAULT_EXACT_LIMIT])
    def test_binomial_and_bose_are_unit_cell_multinomials(self, exact_limit):
        rng = random.Random(20261018)
        for _ in range(200):
            N = rng.choice((rng.randint(0, 60), rng.randint(0, 10**12)))
            n = rng.randint(0, N)
            g = N - n + 1
            cells = multiplicity_distinguishable(
                (n, N - n), (1, 1), exact_limit=exact_limit
            )
            assert binomial(N, n, exact_limit=exact_limit) == cells
            assert multiplicity_bose_exact(n, g, exact_limit=exact_limit) == cells

    def test_one_nonzero_cell_skips_a_zero_multinomial(self):
        # ln(N! / N!) is exactly +0.0 under EXACT, so leaving it out of the
        # fsum changes no bit; zero cells on either side of the full one
        rng = random.Random(20261020)
        cases = [((0, 6000, 0), (1, 2, 3)), ((6000,), (3,)), ((1,), (1,))]
        for _ in range(300):
            m = rng.randint(1, 5)
            ns = [0] * m
            ns[rng.randrange(m)] = rng.choice(
                (rng.randint(1, 60), rng.randint(1, 10**12), rng.randint(1, 10**300))
            )
            degs = [rng.choice((1, 2, 3, rng.randint(1, 10**9))) for _ in range(m)]
            cases.append((tuple(ns), tuple(degs)))
        for ns, degs in cases:
            terms = [n * math.log(g) for n, g in zip(ns, degs)]
            expected = math.fsum(terms + [_log_multinomial(ns, StirlingForm.EXACT)])
            count = multiplicity_distinguishable(ns, degs, exact_limit=0)
            assert repr(count.log_value) == repr(expected), (ns, degs)
        assert repr(classical_symbol_states(6000, 3, exact_limit=0).log_value) == repr(
            6000 * math.log(3)
        )

    def test_one_nonzero_cell_forms_no_log_multinomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("formed ln(N! / N!)")

        monkeypatch.setattr(combinatorics, "_log_multinomial", refuse)
        assert classical_symbol_states(6000, 3, exact_limit=0).is_log_only
        assert multiplicity_bose_exact(6000, 1, exact_limit=0).log_value == 0.0
        with pytest.raises(AssertionError, match="formed"):
            multiplicity_distinguishable((1, 6000), (1, 1), exact_limit=0)

    def test_overflowing_terms_are_a_domain_error(self):
        # each cell term is about 1e308; their sum leaves the float range
        g = 2**144_270
        with pytest.raises(DomainError, match="ln of the count overflows a float"):
            multiplicity_distinguishable((10**303, 10**303), (g, g))


class TestMultiplicityBose:
    def test_small_values(self):
        assert multiplicity_bose_exact(3, 2).value == 4
        assert multiplicity_bose_exact(0, 5).value == 1
        assert multiplicity_bose_exact(1, 5).value == 5

    def test_against_multiset_enumeration(self):
        patterns = sum(
            1 for _ in itertools.combinations_with_replacement(range(7), 5)
        )
        assert patterns == 462
        assert multiplicity_bose_exact(5, 7).value == 462

    def test_equals_binomial_identity(self):
        for n in range(1, 51):
            for g in range(1, 51):
                assert (
                    multiplicity_bose_exact(n, g).value
                    == binomial(n + g - 1, n).value
                )

    def test_approx_trivial_values(self):
        assert multiplicity_bose_approx(0, 9) == 0.0
        assert multiplicity_bose_approx(1, 9) == pytest.approx(math.log(9))

    def test_approx_converges_in_dilute_limit(self):
        exact = multiplicity_bose_exact(10, 1000).log_value
        approx = multiplicity_bose_approx(10, 1000)
        assert abs(approx - exact) / exact < 0.05
        # and the error shrinks as g grows at fixed n
        worse = multiplicity_bose_approx(10, 100)
        worse_exact = multiplicity_bose_exact(10, 100).log_value
        assert abs(approx - exact) / exact < abs(worse - worse_exact) / worse_exact

    def test_zero_substates_rejected(self):
        with pytest.raises(DomainError):
            multiplicity_bose_exact(2, 0)


class TestClassicalSymbolStates:
    def test_small_values(self):
        assert classical_symbol_states(0, 4).value == 1
        assert classical_symbol_states(3, 2).value == 8
        assert classical_symbol_states(5, 10).value == 100000

    def test_log_only_above_limit(self):
        c = classical_symbol_states(6000, 3)
        assert c.is_log_only
        assert c.log_value == pytest.approx(6000 * math.log(3), rel=1e-15)

    def test_goes_through_the_multinomial(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("g**n counted outside _multinomial")

        monkeypatch.setattr(combinatorics, "_multinomial", refuse)
        for limit in (0, DEFAULT_EXACT_LIMIT):
            with pytest.raises(AssertionError, match="outside _multinomial"):
                classical_symbol_states(3, 2, exact_limit=limit)

    @pytest.mark.parametrize("limit", [0, 5, DEFAULT_EXACT_LIMIT, MAX_EXACT_LIMIT])
    def test_is_the_one_cell_distinguishable_count(self, limit):
        # g**n is N! g^N / N! over one cell: the same value and log bits,
        # or the same error where ln g**n leaves the float range
        rng = random.Random(1901 + limit)
        cases = [(0, 1), (0, 2**2000), (limit, 1), (limit + 1, 2), (10**300, 1)]
        cases.append((10**308, 2**2000))  # ln g**n beyond the float range
        for _ in range(150):
            n = rng.choice([rng.randint(0, 30), limit, 10 ** rng.randint(0, 300)])
            n = max(n + rng.randint(-2, 9), 0)
            # bits of g; an exact g**n stays below 2**18 bits, so it is quick
            most = 2000 if n > limit else min(2000, 2**18 // (n + 1))
            bits = rng.randint(1, max(1, most))
            cases.append((n, rng.randint(1, 2**bits)))
        outcomes = set()
        for n, g in cases:
            try:
                got = classical_symbol_states(n, g, exact_limit=limit)
            except DomainError as exc:
                with pytest.raises(DomainError) as want:
                    multiplicity_distinguishable((n,), (g,), exact_limit=limit)
                assert str(exc) == str(want.value), (n, g)
                outcomes.add("error")
                continue
            want = multiplicity_distinguishable((n,), (g,), exact_limit=limit)
            assert got.value == want.value and type(got.value) is type(want.value)
            assert got.log_value.hex() == want.log_value.hex(), (n, g)
            outcomes.add("log-only" if got.is_log_only else "exact")
        assert outcomes == {"exact", "log-only", "error"}


class TestLogFactorial:
    def test_exact_small(self):
        assert log_factorial_exact(0) == 0.0
        assert log_factorial_exact(1) == 0.0
        assert log_factorial_exact(5) == pytest.approx(math.log(120), rel=1e-14)

    def test_exact_against_direct_sum(self):
        for n in (10, 100, 777):
            direct = sum(math.log(k) for k in range(1, n + 1))
            assert log_factorial_exact(n) == pytest.approx(direct, rel=1e-10)

    def test_exact_against_bigint(self):
        assert log_factorial_exact(100) == pytest.approx(
            math.log(math.factorial(100)), rel=1e-14
        )

    def test_stirling_two_term(self):
        assert log_factorial_stirling(1) == pytest.approx(-1.0)
        assert log_factorial_stirling(100) == pytest.approx(
            100 * math.log(100) - 100, rel=1e-15
        )

    def test_stirling_three_term_closer(self):
        for n in (10, 100, 1000):
            exact = log_factorial_exact(n)
            two = log_factorial_stirling(n)
            three = log_factorial_stirling(n, three_term=True)
            assert abs(three - exact) < abs(two - exact)

    def test_two_term_gap_is_half_log_2pin(self):
        # gap grows ~ (1/2) ln(2 pi N), ratio -> 1
        prev_gap = 0.0
        for n in (10, 100, 1000, 10000):
            gap = log_factorial_exact(n) - log_factorial_stirling(n)
            assert gap > prev_gap
            prev_gap = gap
            asymptote = 0.5 * math.log(2 * math.pi * n)
            assert gap / asymptote == pytest.approx(1.0, abs=1e-2)

    def test_stirling_zero_rejected(self):
        with pytest.raises(DomainError):
            log_factorial_stirling(0)

    def test_exact_negative_rejected(self):
        with pytest.raises(DomainError):
            log_factorial_exact(-1)


class TestStirlingForm:
    def test_forms_dispatch(self):
        n = 250.0
        assert StirlingForm.TWO_TERM.log_factorial(n) == log_factorial_stirling(n)
        assert StirlingForm.THREE_TERM.log_factorial(n) == log_factorial_stirling(
            n, three_term=True
        )
        assert StirlingForm.EXACT.log_factorial(n) == math.lgamma(n + 1.0)

    def test_zero_limit(self):
        for form in StirlingForm:
            assert form.log_factorial(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            StirlingForm.TWO_TERM.log_factorial(-1.0)
