"""Microstate counting for particles distributed over degenerate cells.

Counts are exact arbitrary-precision integers up to a configurable size
cutoff and degrade gracefully to log-domain values beyond it.  The module
provides the classical (distinguishable-particle) multiplicity, its
permutation-corrected form (division by N!, which may be rational rather
than integral), the exact and approximate multiset ("bosonic") counts, and
the Stirling machinery used to turn counts into entropies.

Natural logarithms throughout; entropies derived from these counts are in
units of k_B (nats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _check
from ._check import _INF
from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Count",
    "OccupationVector",
    "StirlingForm",
    "DEFAULT_EXACT_LIMIT",
    "MAX_EXACT_LIMIT",
    "binomial",
    "classical_symbol_states",
    "log_factorial_exact",
    "log_factorial_stirling",
    "multiplicity_bose_approx",
    "multiplicity_bose_exact",
    "multiplicity_distinguishable",
    "multiplicity_gibbs_corrected",
    "multiplicity_gibbs_corrected_exact",
]

# Largest particle number for which big-integer values are materialized by
# default.  Above this the integer is still well defined but its decimal
# expansion is tens of thousands of digits; callers that want it anyway can
# raise exact_limit up to MAX_EXACT_LIMIT.
DEFAULT_EXACT_LIMIT = 5000
MAX_EXACT_LIMIT = 20000

_TWO_PI = 2.0 * math.pi
# EXACT adds it to (1/2) ln x, where 2 pi x would overflow above 2.9e307
_HALF_LN_2PI = 0.5 * math.log(_TWO_PI)
# Loader's stirlerr series above 15: ln x! - (x + 1/2) ln x + x - (1/2) ln 2 pi
# = (S0 - S1/x^2 + S2/x^4 - S3/x^6 + S4/x^8) / x, with a next term below 3e-16
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _check_exact_limit(exact_limit: int) -> int:
    if type(exact_limit) is int and 0 <= exact_limit <= MAX_EXACT_LIMIT:
        return exact_limit
    limit = _check.integer("exact_limit", exact_limit)
    if limit > MAX_EXACT_LIMIT:
        raise DomainError(
            f"exact_limit {limit} exceeds the hard cap {MAX_EXACT_LIMIT}; "
            "larger counts are only available in log form"
        )
    return limit


@dataclass(frozen=True)
class Count:
    """A microstate count carrying both its integer value and natural log.

    ``value is None`` marks a log-only count: either the integer exceeded
    the requested exact limit, or the count is not an integer at all (the
    permutation-corrected multiplicity can be rational).  ``log_value`` is
    always meaningful; a count of zero carries the ``-inf`` sentinel.  The
    constructor checks both: a real log below +inf, and None or an int >= 0.
    """

    log_value: float
    value: int | None = None

    def __post_init__(self) -> None:
        x = self.log_value
        if type(x) is not float:
            x = _check.real("log_value", x)
            object.__setattr__(self, "log_value", x)
        if math.isnan(x):
            raise DomainError("log_value must not be NaN")
        if x == _INF:  # -inf stays: it is the zero count
            raise DomainError("ln of the count overflows a float")
        value = self.value
        if value is not None and (type(value) is not int or value < 0):
            object.__setattr__(self, "value", _check.integer("count", value))

    @classmethod
    def from_int(cls, value: int) -> "Count":
        return cls._exact(_check.integer("count", value))

    @classmethod
    def _exact(cls, value: int) -> "Count":
        """The count of an int >= 0 that the caller has checked or computed;
        the one builder that skips the constructor's checks."""
        count = object.__new__(cls)
        # math.log takes big ints directly; no float conversion overflow.
        object.__setattr__(count, "log_value", -_INF if value == 0 else math.log(value))
        object.__setattr__(count, "value", value)
        return count

    @classmethod
    def log_only(cls, log_value: float) -> "Count":
        return cls(log_value)

    @property
    def is_log_only(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class OccupationVector:
    """Cell occupation numbers n_i; exact nonnegative integers."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _check.occupations(self.counts))

    @classmethod
    def _exact(cls, counts: tuple[int, ...]) -> "OccupationVector":
        """The vector of a nonempty tuple of ints >= 0 that the caller computed."""
        occ = object.__new__(cls)
        object.__setattr__(occ, "counts", counts)
        return occ

    @property
    def total(self) -> int:
        """Total particle number N."""
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


def _as_cells(
    occ: OccupationVector | Iterable[int], degeneracies: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Checked occupation numbers and cell degeneracies, one per cell."""
    ns = occ.counts if isinstance(occ, OccupationVector) else _check.occupations(occ)
    degs = _check.degeneracies(degeneracies)
    if len(degs) != len(ns):
        raise DomainError(
            f"occupation/degeneracy length mismatch: {len(ns)} cells "
            f"vs {len(degs)} degeneracies"
        )
    return ns, degs


class StirlingForm(Enum):
    """Which approximation of ln N! an entropy formula is built on.

    A form is its remainder r(x) = ln x! - (x ln x - x): 0 for TWO_TERM,
    (1/2) ln(2 pi x) for THREE_TERM, and the exact remainder for EXACT.
    TWO_TERM is the thermodynamic workhorse: it makes the corrected-count
    entropy exactly extensive, so "no entropy change" statements come out
    as an exact zero instead of a small residual.  EXACT uses the
    log-gamma function and exposes the finite-size residuals the two-term
    form suppresses.  Entropy changes are built on the remainders, so no
    change subtracts two entropies of order N ln N.
    """

    TWO_TERM = "two-term"
    THREE_TERM = "three-term"
    EXACT = "exact"

    def log_factorial(self, n: float) -> float:
        """ln n! under this form, for real n >= 0.

        Occupation numbers in entropy formulas are generally not integers,
        so this accepts any nonnegative real.  n == 0 returns 0 (the
        factorial limit) under every form; the Stirling expressions are
        poor for small nonzero n, which is the form's own failure mode
        rather than this function's.  An n or an ln n! beyond the float
        range is a DomainError.  The value is ``_log_factorials`` at n.
        """
        x = _check.finite("n", n)
        if x < 0.0:
            raise DomainError(f"log_factorial needs n >= 0, got {n!r}")
        (value,) = self._log_factorials((x,))
        if value == _INF:
            raise DomainError(f"ln n! overflows a float at n = {x:.6g}")
        return value

    def _log_factorials(self, xs: Sequence[float]) -> list[float]:
        """ln x! under this form for a column of finite reals x >= 0.

        The one definition of ln n! in the package: one comprehension per
        form, 0 at x == 0 under every form, and inf where ln x! leaves the
        float range.  Callers check the column; nothing here does.
        """
        log = math.log
        if self is StirlingForm.TWO_TERM:
            return [x * log(x) - x if x else 0.0 for x in xs]
        if self is StirlingForm.THREE_TERM:
            return [
                (x * log(x) - x) + 0.5 * log(_TWO_PI * x) if x else 0.0 for x in xs
            ]
        lgamma = math.lgamma  # EXACT: lgamma(1.0) is 0.0
        try:
            return [lgamma(x + 1.0) for x in xs]
        except OverflowError:  # lgamma raises where the Stirling forms give inf
            if len(xs) == 1:
                return [_INF]
            return [self._log_factorials((x,))[0] for x in xs]

    def _remainders(self, xs: Sequence[float]) -> list[float]:
        """r(x) = ln x! - (x ln x - x) under this form, for a column of
        finite floats x >= 0; 0 at x == 0 under every form.

        EXACT takes lgamma's remainder up to x = 15 and Loader's stirlerr
        series plus (1/2) ln(2 pi x) above (C. Loader, "Fast and Accurate
        Computation of Binomial Probabilities", 2000), so no term of order
        x ln x is formed.  Callers check the column; nothing here does.
        """
        if self is StirlingForm.TWO_TERM:
            return [0.0] * len(xs)
        log = math.log
        if self is StirlingForm.THREE_TERM:  # as in _log_factorials
            return [0.5 * log(_TWO_PI * x) if x else 0.0 for x in xs]
        lgamma = math.lgamma
        return [
            (_S0 - (u := 1.0 / (x * x)) * (_S1 - u * (_S2 - u * (_S3 - u * _S4)))) / x
            + (_HALF_LN_2PI + 0.5 * log(x))
            if x > 15.0
            else (lgamma(x + 1.0) - (x * log(x) - x) if x else 0.0)
            for x in xs
        ]


def _log_multinomial(ns: Sequence[int], form: StirlingForm) -> float:
    """ln(N! / prod n_i!) under ``form`` for integers n_i >= 0, 0 < N = sum(ns)
    within the float range.

    sum n_i ln(N / n_i) + r(N) - sum r(n_i), with r the form's remainder,
    so no two terms of order N ln N are subtracted.  A count above N/2
    takes its term as -n_i log1p(-(N - n_i) / N), with N - n_i exact in
    integers.  One fsum: the order of ns changes no bit.
    """
    N = sum(ns)
    log, log1p = math.log, math.log1p
    r_N, *rs = form._remainders([float(n) for n in (N, *ns)])
    terms = [-n * log1p((n - N) / N) if n + n > N else n * log(N / n) for n in ns if n]
    return _check.fsum(terms + [r_N] + [-r for r in rs], _INF)


def log_factorial_exact(n: int | float) -> float:
    """ln n! to full double precision: ``StirlingForm.EXACT.log_factorial``.

    Equals the direct sum ln 1 + ln 2 + ... + ln n but is computed in O(1)
    via the log-gamma function, so it stays usable for n far beyond the
    big-integer comfort zone.  Accepts real n >= 0 (gamma interpolation).
    """
    return StirlingForm.EXACT.log_factorial(n)


def log_factorial_stirling(n: int | float, *, three_term: bool = False) -> float:
    """Stirling approximation to ln n!.

    Two-term form ``n ln n - n`` by default; ``three_term=True`` adds
    ``(1/2) ln(2 pi n)``.  Requires n > 0 since ln n appears explicitly.
    """
    if not _check.finite("n", n) > 0:
        raise DomainError(f"log_factorial_stirling needs n > 0, got {n!r}")
    form = StirlingForm.THREE_TERM if three_term else StirlingForm.TWO_TERM
    return form.log_factorial(n)


def _multinomial(ns: Sequence[int], degs: Sequence[int], limit: int) -> Count:
    """N! * prod(g_i^n_i) / prod(n_i!) for checked cells, N = sum(ns).

    The one multinomial of the module: binomial and multiset counts are
    it over two cells of one substate each, g**n over one cell of g.
    Exact for N <= limit, as a chain of binomials comb(n_1 + ... + n_i,
    n_i) * g_i^n_i that never divides.  Beyond it log-only: the fsum of
    the per-cell n_i ln g_i and ``_log_multinomial`` under EXACT, so the
    same bits on every interpreter (``sum`` compensates from Python 3.12
    on).
    """
    N = sum(ns)
    if N <= limit:
        value = 1
        prefix = 0
        for n_i, g_i in zip(ns, degs):
            prefix += n_i
            value *= math.comb(prefix, n_i) * g_i**n_i
        return Count._exact(value)
    # N may leave the float range although every n_i fits
    _check.count("total particle number", N, 0)
    terms = [n_i * math.log(g_i) for n_i, g_i in zip(ns, degs)]
    terms.append(_log_multinomial(ns, StirlingForm.EXACT))
    return Count.log_only(_check.fsum(terms, _INF))


def _corrected_pair(ns: Sequence[int], degs: Sequence[int]) -> tuple[int, int]:
    """(prod g_i^n_i, prod n_i!): the corrected count as an unreduced fraction."""
    return (
        math.prod([g_i**n_i for n_i, g_i in zip(ns, degs)]),
        math.prod([math.factorial(n_i) for n_i in ns]),
    )


def binomial(N: int, n: int, *, exact_limit: int = DEFAULT_EXACT_LIMIT) -> Count:
    """Ways to choose n labeled particles out of N: N! / (n! (N-n)!).

    Exact integer for N <= exact_limit, log-only beyond.  n > N is a
    domain error rather than zero: in every counting context here it means
    the caller's bookkeeping is broken.
    """
    N = _check.count("N", N, 0)
    n = _check.count("n", n, 0)
    limit = _check_exact_limit(exact_limit)
    if n > N:
        raise DomainError(f"cannot choose n={n} from N={N}")
    return _multinomial((n, N - n), (1, 1), limit)


def multiplicity_distinguishable(
    occ: OccupationVector | Iterable[int],
    degeneracies: Sequence[int],
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> Count:
    """Microstates of N labeled particles with occupation n_i over cells
    of degeneracy g_i:  N! * prod(g_i^n_i) / prod(n_i!).

    This is the count that makes entropy non-extensive and produces the
    classic paradoxes; the corrected variant below divides out N!.
    """
    ns, degs = _as_cells(occ, degeneracies)
    return _multinomial(ns, degs, _check_exact_limit(exact_limit))


def multiplicity_gibbs_corrected(
    occ: OccupationVector | Iterable[int],
    degeneracies: Sequence[int],
    *,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> Count:
    """Permutation-corrected multiplicity: prod(g_i^n_i) / prod(n_i!).

    Equal to the distinguishable count divided by N!.  The quotient is not
    an integer in general (e.g. one cell, g=1, n=2 gives 1/2); ``value``
    is populated only when it happens to be integral and small enough,
    otherwise the Count is log-only.  ``log_value`` is always the
    distinguishable log minus ln N!, so the defining identity holds to the
    last bit, and it is good to a few ulps of the larger of the two: at
    N = 1e16, g = floor(N / e) the true -19.93 reads 0.0, 0.31 of one ulp
    (64) of ln N!.  The exact quotient is formed only when N is within
    ``exact_limit`` and ``log_value`` is at least -1: an integral quotient
    is at least 1, so a smaller one is log-only without dividing.  For the
    exact rational, see :func:`multiplicity_gibbs_corrected_exact`.
    """
    ns, degs = _as_cells(occ, degeneracies)
    dist = _multinomial(ns, degs, _check_exact_limit(exact_limit))
    log_value = dist.log_value - log_factorial_exact(sum(ns))
    # An integral quotient is >= 1, so its log is >= 0.  For a quotient
    # below e, both logs subtracted above are at most ln N! + 1 <=
    # ln(MAX_EXACT_LIMIT!) + 1 ~ 1.8e5, each good to a few ulps (~1e-10),
    # so the margin of 1 cannot turn an integral quotient away.
    if dist.value is not None and log_value >= -1.0:
        # dist / N! = prod(g_i^n_i) / prod(n_i!), without dividing by N!
        value, remainder = divmod(*_corrected_pair(ns, degs))
        if remainder == 0:
            return Count(log_value=log_value, value=value)
    return Count.log_only(log_value)


def multiplicity_gibbs_corrected_exact(
    occ: OccupationVector | Iterable[int],
    degeneracies: Sequence[int],
) -> Fraction:
    """Exact rational value of the permutation-corrected multiplicity."""
    from fractions import Fraction  # here only: it loads decimal too

    ns, degs = _as_cells(occ, degeneracies)
    N = sum(ns)
    if N > MAX_EXACT_LIMIT:
        raise DomainError(f"N={N} exceeds the exact-arithmetic cap {MAX_EXACT_LIMIT}")
    return Fraction(*_corrected_pair(ns, degs))


def multiplicity_bose_exact(
    n: int, g: int, *, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> Count:
    """Unordered ways to place n identical particles in g substates:
    (n + g - 1)! / (n! (g - 1)!).
    """
    n = _check.count("n", n, 0)
    g = _check.count("g", g)
    return _multinomial((n, g - 1), (1, 1), _check_exact_limit(exact_limit))


def multiplicity_bose_approx(n: int, g: int) -> float:
    """Dilute-limit log of the bosonic count: n ln g - ln n!.

    Valid when g >> n (each particle effectively gets its own substate,
    order discounted).  Returns the log directly; there is no integer to
    materialize since the expression is already an approximation.
    """
    n = _check.count("n", n, 0)
    g = _check.integer("g", g, 1)
    return n * math.log(g) - log_factorial_exact(n)


def classical_symbol_states(
    n: int, g: int, *, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> Count:
    """Ordered assignments of n labeled particles to g substates: g**n,
    the multinomial over one cell of g substates."""
    n = _check.count("n", n, 0)
    g = _check.integer("g", g, 1)
    return _multinomial((n,), (g,), _check_exact_limit(exact_limit))
