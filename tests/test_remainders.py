"""Stirling remainders and the entropy differences built on them, against a
50-digit mpmath evaluation.

Each Stirling form is its remainder r(x) = ln x! - (x ln x - x), and every
entropy difference is formed from remainders and ratio logs rather than
as the difference of two entropies of order N ln N.  The references are
built from ints, strings or ``mpf`` values, with no float arithmetic
before the call.  The tolerance, 1e-15 relative, holds for N from 1e3 to
1e18, where subtracting two N ln N terms loses every digit.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from mixent.combinatorics import StirlingForm, _log_multinomial, binomial
from mixent.mixing import GasCompartment, MixingScenario, mixing_entropy
from mixent.mixing import partition_change_entropy
from mixent.statmech import CountingModel

mpmath = pytest.importorskip("mpmath")

REL_TOL = 1e-15
DIGITS = 50
EXPONENTS = (3, 6, 12, 14, 16, 18)
GIBBS = CountingModel.GIBBS_CORRECTED
EXACT = StirlingForm.EXACT


def _rel_err(value: float, reference) -> float:
    return float(abs(mpmath.mpf(value) - reference) / abs(reference))


def _log_factorial(n):
    """ln n! of an int, an ``mpf`` or a float taken as exact."""
    return mpmath.loggamma(mpmath.mpf(n) + 1)


class TestRemainders:
    # floats up to 15 and beyond it, integral or not
    SMALL = [0.0, 1e-300, 0.25, 0.5, 1.0, 2.0, 2.5, 7.0, 10.75, 14.999, 15.0]
    LARGE = [15.000001, 15.5, 16.0, 35.0, 35.5, 80.0, 81.0, 500.0, 500.25,
             1e3, 12345.678, 1e6, 1e12, 2.0**53, 1e18, 1e100, 1e300]

    def test_exact_up_to_15_is_lgamma_less_two_terms(self):
        # the same operations as _log_factorials less x ln x - x: same bits
        log = math.log
        rs = EXACT._remainders(self.SMALL)
        lfs = EXACT._log_factorials(self.SMALL)
        for x, r, lf in zip(self.SMALL, rs, lfs):
            assert r == (lf - (x * log(x) - x) if x else 0.0), x

    def test_exact_above_15_against_mpmath(self):
        for x, r in zip(self.LARGE, EXACT._remainders(self.LARGE)):
            # the reference subtracts two terms of order x ln x itself, so
            # it carries as many more digits as x has
            with mpmath.workdps(DIGITS + int(math.log10(x))):
                X = mpmath.mpf(x)
                reference = _log_factorial(X) - (X * mpmath.log(X) - X)
                assert _rel_err(r, reference) <= REL_TOL, x

    def test_three_term_is_the_half_log(self):
        # (1/2) ln(2 pi x), as _log_factorials adds it: same bits
        xs = self.SMALL + self.LARGE
        rs = StirlingForm.THREE_TERM._remainders(xs)
        lfs = StirlingForm.THREE_TERM._log_factorials(xs)
        for x, r, lf in zip(xs, rs, lfs):
            assert lf == ((x * math.log(x) - x) + r if x else 0.0), x

    def test_two_term_is_zero(self):
        assert StirlingForm.TWO_TERM._remainders([0.0, 1.0, 1e300]) == [0.0] * 3

    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_zero_at_zero(self, form):
        assert form._remainders([0.0]) == [0.0]


class TestLogMultinomial:
    @pytest.mark.parametrize("exponent", EXPONENTS + (20,))
    def test_binomials_against_mpmath(self, exponent):
        N = 10**exponent
        with mpmath.workdps(DIGITS):
            for n in (1, N // 2, N // 3, N - 1):
                reference = (
                    _log_factorial(N) - _log_factorial(n) - _log_factorial(N - n)
                )
                got = binomial(N, n, exact_limit=0).log_value
                assert _rel_err(got, reference) <= REL_TOL, (N, n)

    def test_exact_counts_agree(self):
        # log-only and exact paths of the same small counts
        rng = random.Random(2000)
        for _ in range(300):
            ns = [rng.randint(0, 40) for _ in range(rng.randint(1, 5))]
            if not sum(ns):
                continue
            count = math.factorial(sum(ns)) // math.prod(map(math.factorial, ns))
            got = _log_multinomial(ns, EXACT)
            assert got == pytest.approx(math.log(count), rel=1e-14, abs=1e-14), ns

    def test_order_changes_no_bit(self):
        rng = random.Random(2001)
        for form in StirlingForm:
            for _ in range(50):
                ns = [rng.randint(1, 10 ** rng.randint(1, 17)) for _ in range(5)]
                orders = itertools.permutations(ns)
                values = {_log_multinomial(p, form) for p in orders}
                assert len(values) == 1, (form, ns)

    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_one_cell_is_zero(self, form):
        for N in (1, 73, 10**18):
            got = _log_multinomial([N], form)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


class TestEntropyDifferences:
    """The cancellation cases: the EXACT partition residual and matched
    halves of one species, at N from 1e3 to 1e18."""

    @pytest.mark.parametrize("exponent", EXPONENTS)
    @pytest.mark.parametrize("parts", [2, 3])
    def test_exact_partition_residual(self, exponent, parts):
        N = parts * (10**exponent // parts)
        got = partition_change_entropy(N, 1.0, 1.0, parts, GIBBS, EXACT).delta_S
        with mpmath.workdps(DIGITS):
            # N ln(parts) - ln(N! / ((N/parts)!)^parts)
            reference = (
                N * mpmath.log(parts)
                - _log_factorial(N)
                + parts * _log_factorial(N // parts)
            )
            assert _rel_err(got, reference) <= REL_TOL

    @pytest.mark.parametrize("exponent", EXPONENTS)
    @pytest.mark.parametrize("form", list(StirlingForm))
    def test_matched_halves(self, exponent, form):
        N = 10**exponent
        half = GasCompartment("a", N // 2, 0.5, 1.0)
        scenario = MixingScenario.from_compartments((half, half), stirling_form=form)
        got = mixing_entropy(scenario).delta_S
        if form is StirlingForm.TWO_TERM:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0
            return
        with mpmath.workdps(DIGITS):
            if form is StirlingForm.THREE_TERM:  # 2 r(N/2) - r(N)
                reference = mpmath.log(mpmath.pi * N / 2) / 2
            else:  # N ln 2 - ln C(N, N/2)
                reference = (
                    N * mpmath.log(2) - _log_factorial(N) + 2 * _log_factorial(N // 2)
                )
            assert _rel_err(got, reference) <= REL_TOL
