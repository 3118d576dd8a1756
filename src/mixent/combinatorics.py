"""Microstate counting for particles distributed over degenerate cells.

Counts are exact arbitrary-precision integers up to a configurable size
cutoff and degrade gracefully to log-domain values beyond it.  The module
provides the classical (distinguishable-particle) multiplicity, its
permutation-corrected form (division by N!, which may be rational rather
than integral), the exact and approximate multiset ("bosonic") counts, and
the Stirling forms used to turn counts into entropies (defined in
``_forms``, which ``mixing`` reads without loading this module).

Natural logarithms throughout; entropies derived from these counts are in
units of k_B (nats).
"""

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import _EXPORTS, _check
from ._check import _INF
from ._forms import StirlingForm, _log_multinomial
from .errors import DomainError

TYPE_CHECKING = False  # typing's, without loading typing; checkers read True
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [*_EXPORTS["combinatorics"], "DEFAULT_EXACT_LIMIT", "MAX_EXACT_LIMIT"]

# Largest particle number for which big-integer values are materialized by
# default.  Above this the integer is still well defined but its decimal
# expansion is tens of thousands of digits; callers that want it anyway can
# raise exact_limit up to MAX_EXACT_LIMIT.
DEFAULT_EXACT_LIMIT = 5000
MAX_EXACT_LIMIT = 20000


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


def _multinomial(
    ns: Sequence[int], degs: Sequence[int], limit: int, total: str = "total particle number"
) -> Count:
    """N! * prod(g_i^n_i) / prod(n_i!) for checked cells, N = sum(ns).

    The one multinomial of the module: binomial and multiset counts are
    it over two cells of one substate each, g**n over one cell of g.
    Exact for N <= limit, as a chain of binomials comb(n_1 + ... + n_i,
    n_i) * g_i^n_i that never divides.  Beyond it log-only: the fsum of
    the per-cell n_i ln g_i and ``_log_multinomial`` under EXACT (left out
    where one cell holds all N, as it is then exactly +0.0), so the same
    bits on every interpreter (``sum`` compensates from Python 3.12 on).
    N may leave the float range although every n_i fits; the error then
    calls it ``total``.
    """
    N = sum(ns)
    if N <= limit:
        value = 1
        prefix = 0
        for n_i, g_i in zip(ns, degs):
            prefix += n_i
            value *= math.comb(prefix, n_i) * g_i**n_i
        return Count._exact(value)
    _check.count(total, N, 0)
    terms = [n_i * math.log(g_i) for n_i, g_i in zip(ns, degs)]
    if max(ns) != N:
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
) -> "Fraction":
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
    (n + g - 1)! / (n! (g - 1)!), the multinomial over the cells (n, g - 1).
    """
    n = _check.count("n", n, 0)
    g = _check.count("g", g)
    return _multinomial((n, g - 1), (1, 1), _check_exact_limit(exact_limit), "n + g - 1")


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
