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

_NEG_INF = float("-inf")
_INF = float("inf")
_TWO_PI = 2.0 * math.pi


def _check_exact_limit(exact_limit: int) -> int:
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
    always meaningful; a count of zero carries the ``-inf`` sentinel.
    """

    log_value: float
    value: int | None = None

    @classmethod
    def from_int(cls, value: int) -> "Count":
        value = _check.integer("count", value)
        # math.log takes big ints directly; no float conversion overflow.
        log_value = _NEG_INF if value == 0 else math.log(value)
        return cls(log_value=log_value, value=value)

    @classmethod
    def log_only(cls, log_value: float) -> "Count":
        if math.isnan(log_value):
            raise DomainError("log_value must not be NaN")
        if log_value == _INF:  # -inf stays: it is the zero count
            raise DomainError("ln of the count overflows a float")
        return cls(log_value=float(log_value), value=None)

    @property
    def is_log_only(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class OccupationVector:
    """Cell occupation numbers n_i; exact nonnegative integers."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        coerced = tuple(
            _check.count("occupation number", c, 0) for c in self.counts
        )
        object.__setattr__(self, "counts", coerced)
        if not coerced:
            raise DomainError("occupation vector needs at least one cell")

    @property
    def total(self) -> int:
        """Total particle number N."""
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self):
        return iter(self.counts)


def _as_occupation(occ: OccupationVector | Iterable[int]) -> OccupationVector:
    if isinstance(occ, OccupationVector):
        return occ
    return OccupationVector(tuple(occ))


def _as_degeneracies(
    degeneracies: Sequence[int], n_cells: int
) -> tuple[int, ...]:
    degs = tuple(_check.integer("degeneracy", g, 1) for g in degeneracies)
    if len(degs) != n_cells:
        raise DomainError(
            f"occupation/degeneracy length mismatch: {n_cells} cells "
            f"vs {len(degs)} degeneracies"
        )
    return degs


class StirlingForm(Enum):
    """Which approximation of ln N! an entropy formula is built on.

    TWO_TERM is the thermodynamic workhorse: it makes the corrected-count
    entropy exactly extensive, so "no entropy change" statements come out
    as an exact zero instead of a small residual.  THREE_TERM adds the
    (1/2) ln(2 pi N) correction; EXACT uses the log-gamma function and
    exposes the finite-size residuals the two-term form suppresses.
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
    if N <= limit:
        return Count.from_int(math.comb(N, n))
    log_value = (
        log_factorial_exact(N) - log_factorial_exact(n) - log_factorial_exact(N - n)
    )
    return Count.log_only(log_value)


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
    occ = _as_occupation(occ)
    degs = _as_degeneracies(degeneracies, len(occ))
    N = occ.total
    limit = _check_exact_limit(exact_limit)
    if N <= limit:
        # the multinomial N! / prod(n_i!) as a chain of binomials
        value = 1
        prefix = 0
        for n_i, g_i in zip(occ, degs):
            prefix += n_i
            value *= math.comb(prefix, n_i) * g_i**n_i
        return Count.from_int(value)
    log_value = log_factorial_exact(N) + sum(
        n_i * math.log(g_i) - log_factorial_exact(n_i)
        for n_i, g_i in zip(occ, degs)
    )
    return Count.log_only(log_value)


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
    last bit.  For the exact rational, see
    :func:`multiplicity_gibbs_corrected_exact`.
    """
    occ = _as_occupation(occ)
    degs = _as_degeneracies(degeneracies, len(occ))
    dist = multiplicity_distinguishable(occ, degs, exact_limit=exact_limit)
    log_value = dist.log_value - log_factorial_exact(occ.total)
    if dist.value is not None:
        # dist / N! = prod(g_i^n_i) / prod(n_i!), without dividing by N!
        value, remainder = divmod(
            math.prod([g_i**n_i for n_i, g_i in zip(occ, degs)]),
            math.prod([math.factorial(n_i) for n_i in occ]),
        )
        if remainder == 0:
            return Count(log_value=log_value, value=value)
    return Count.log_only(log_value)


def multiplicity_gibbs_corrected_exact(
    occ: OccupationVector | Iterable[int],
    degeneracies: Sequence[int],
) -> Fraction:
    """Exact rational value of the permutation-corrected multiplicity."""
    from fractions import Fraction  # here only: it loads decimal too

    occ = _as_occupation(occ)
    degs = _as_degeneracies(degeneracies, len(occ))
    if occ.total > MAX_EXACT_LIMIT:
        raise DomainError(
            f"N={occ.total} exceeds the exact-arithmetic cap {MAX_EXACT_LIMIT}"
        )
    numerator = 1
    denominator = 1
    for n_i, g_i in zip(occ, degs):
        numerator *= g_i**n_i
        denominator *= math.factorial(n_i)
    return Fraction(numerator, denominator)


def multiplicity_bose_exact(
    n: int, g: int, *, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> Count:
    """Unordered ways to place n identical particles in g substates:
    (n + g - 1)! / (n! (g - 1)!).
    """
    n = _check.count("n", n, 0)
    g = _check.count("g", g)
    limit = _check_exact_limit(exact_limit)
    if n + g - 1 <= limit:
        return Count.from_int(math.comb(n + g - 1, n))
    log_value = (
        log_factorial_exact(n + g - 1)
        - log_factorial_exact(n)
        - log_factorial_exact(g - 1)
    )
    return Count.log_only(log_value)


def multiplicity_bose_approx(n: int, g: int) -> float:
    """Dilute-limit log of the bosonic count: n ln g - ln n!.

    Valid when g >> n (each particle effectively gets its own substate,
    order discounted).  Returns the log directly; there is no integer to
    materialize since the expression is already an approximation.
    """
    n = _check.count("n", n, 0)
    g = _check.integer("g", g, 1)
    if n == 0:
        return 0.0
    return n * math.log(g) - log_factorial_exact(n)


def classical_symbol_states(
    n: int, g: int, *, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> Count:
    """Ordered assignments of n labeled particles to g substates: g**n."""
    n = _check.count("n", n, 0)
    g = _check.integer("g", g, 1)
    limit = _check_exact_limit(exact_limit)
    if n <= limit:
        return Count.from_int(g**n)
    return Count.log_only(n * math.log(g))
