"""Brute-force enumeration oracle for the counting formulas.

Everything here iterates actual assignments with itertools and tallies
them; no factorials, binomials, or other closed forms are consulted on
the enumeration side.  The point is independence: if a formula in
:mod:`mixent.combinatorics` is wrong, the oracle disagrees with it.

Runtime is linear in the number of assignments, so hard guards cap the
problem size before a call can wedge the process.
"""

import itertools
import math
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from . import _EXPORTS, _check, combinatorics
from .combinatorics import OccupationVector
from .errors import OracleSizeError

__all__ = [
    *_EXPORTS["oracle"],
    "ASSIGNMENT_GUARD",
    "INDISTINCT_GUARD",
    "IdentityCheck",
    "FIXED_CELL_SUITE",
]

ASSIGNMENT_GUARD = 10**8  # max (sum g)^N for labeled enumeration
INDISTINCT_GUARD = 10**7  # max multiset patterns for unlabeled enumeration

# degeneracy layouts exercised by the standard verification suite
FIXED_CELL_SUITE = (
    (1, 1),
    (2, 1),
    (2, 2),
    (1, 1, 1),
    (3, 2),
)


@dataclass(frozen=True)
class CellSpec:
    """Degeneracies g_i of the cells particles are distributed over."""

    degeneracies: tuple[int, ...]

    def __post_init__(self) -> None:
        degs = _check.degeneracies(self.degeneracies)
        object.__setattr__(self, "degeneracies", degs)
        if not degs:
            raise OracleSizeError("CellSpec needs at least one cell")

    @property
    def total_substates(self) -> int:
        return sum(self.degeneracies)

    def __len__(self) -> int:
        return len(self.degeneracies)


def _cell_spec(cells: CellSpec | tuple[int, ...]) -> CellSpec:
    if isinstance(cells, CellSpec):
        return cells
    return CellSpec(cells)


@dataclass(frozen=True)
class EnumerationResult:
    """Tally of enumerated configurations, grouped by occupation vector."""

    by_occupation: Mapping[OccupationVector, int]
    total: int


# most suffix keys enumerate_assignments builds at once; bounds its memory
_SUFFIX_BLOCK = 4096
# most keys enumerate_assignments keeps in prefix key blocks, its suffix
# block included; a block that does not fit is built, fed and dropped
_MEMO_KEYS = 2**15


def _substate_weights(cells: CellSpec, N: int) -> tuple[int, ...]:
    """Key weight (N+1)**i of each substate, where i is its cell.

    The key of a configuration is the sum of its substates' weights.  No
    occupation exceeds N, so the base-(N+1) digits of a key are exactly
    the occupation vector, with no carries.  At N = 0 no substate is ever
    taken, so none gets a weight: the one empty configuration, the only
    one itertools yields over an empty pool, keys to 0.
    """
    if N == 0:
        return ()
    base = N + 1
    return tuple(
        base**i for i, g in enumerate(cells.degeneracies) for _ in range(g)
    )


def _decode(tally: Counter[int], N: int, m: int) -> EnumerationResult:
    """The one way an EnumerationResult is made: the key tally turned back
    into occupation vectors (base-(N+1) digits), and its total."""
    base = N + 1
    exact = OccupationVector._exact
    grouped = {}
    for key, count in tally.items():
        occ = []
        for _ in range(m - 1):
            key, n = divmod(key, base)
            occ.append(n)
        occ.append(key)  # every digit is at most N, so the last quotient is one
        grouped[exact(tuple(occ))] = count
    return EnumerationResult(by_occupation=grouped, total=sum(tally.values()))


def enumerate_assignments(
    N: int, cells: CellSpec | tuple[int, ...]
) -> EnumerationResult:
    """Enumerate every assignment of N labeled particles to substates.

    Iterates all (sum g)^N assignments and groups them by the occupation
    vector they induce on the cells.  Each assignment is keyed by the sum
    of its substates' weights (see _substate_weights) and counted once.
    The keys of the last k particles are built once, one particle at a
    time while G**k fits _SUFFIX_BLOCK, each from its parent's key plus one
    weight, in itertools.product order; k >= 1 for N >= 1, a one-particle
    suffix being the weight tuple itself however large G is.  Each distinct
    key of the first N - k particles, streamed from itertools.product, gets
    one block, its sum with every suffix key, and Counter.update is fed
    that block, so an assignment costs the counting of one prebuilt key, in
    C.  Prefixes that give the same occupation share a block.  Blocks are
    kept for this call while the kept keys, the suffix block (the block of
    the empty prefix) included, stay within _MEMO_KEYS; a block that does
    not fit is built, fed and dropped.  Memory is thus one suffix block
    plus at most _MEMO_KEYS keys (with a prefix, G**2 is within the guard,
    so a block is smaller than _MEMO_KEYS).  The keys still arrive one per
    assignment, in itertools.product order.  Raises OracleSizeError when
    the assignment count exceeds ASSIGNMENT_GUARD (a single substate
    counting as two).
    """
    N = _check.integer("N", N)
    cells = _cell_spec(cells)
    G = cells.total_substates
    # decided before any power: 2**N > the guard once N reaches its bit
    # length, and one substate counts as two (each assignment costs N steps)
    if N >= ASSIGNMENT_GUARD.bit_length() or max(G, 2) ** N > ASSIGNMENT_GUARD:
        raise OracleSizeError(
            f"labeled enumeration of N = {N} particles over G = {G} substates "
            f"exceeds the guard of {ASSIGNMENT_GUARD} assignments"
        )
    weight = _substate_weights(cells, N)
    suffix, k = (weight, 1) if N else ((0,), 0)
    while k < N and len(suffix) * G <= _SUFFIX_BLOCK:
        suffix = [key + w for key in suffix for w in weight]
        k += 1
    tally: Counter[int] = Counter()
    blocks = {0: suffix}
    room = _MEMO_KEYS - len(suffix)
    for prefix in map(sum, itertools.product(weight, repeat=N - k)):
        block = blocks.get(prefix)
        if block is None:
            block = [prefix + key for key in suffix]
            if len(block) <= room:
                blocks[prefix] = block
                room -= len(block)
        tally.update(block)
    result = _decode(tally, N, len(cells))
    if result.total != G**N:
        raise AssertionError(f"enumeration is broken: visited {result.total} of {G**N}")
    return result


def enumerate_indistinct(
    N: int, cells: CellSpec | tuple[int, ...]
) -> EnumerationResult:
    """Enumerate every multiset of substates for N unlabeled particles.

    Each distinct multiset (pattern) counts once, matching bosonic state
    counting; patterns are keyed as in enumerate_assignments.  Raises
    OracleSizeError when the pattern count exceeds INDISTINCT_GUARD (a
    single substate counting as two; the guard itself is a size precheck,
    the reported total still comes from actual iteration).
    """
    N = _check.integer("N", N)
    cells = _cell_spec(cells)
    G = cells.total_substates
    m = max(G, 2) - 1  # one substate counts as two, as in enumerate_assignments
    # C(N + m, N) >= 2**min(N, m), so the binomial is needed only while that
    # minimum is small, and math.comb is then cheap
    if (
        min(N, m) >= INDISTINCT_GUARD.bit_length()
        or math.comb(N + m, N) > INDISTINCT_GUARD
    ):
        raise OracleSizeError(
            f"unlabeled enumeration of N = {N} particles over G = {G} substates "
            f"exceeds the guard of {INDISTINCT_GUARD} multiset patterns"
        )
    weight = _substate_weights(cells, N)
    tally = Counter(map(sum, itertools.combinations_with_replacement(weight, N)))
    return _decode(tally, N, len(cells))


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one formula-vs-enumeration comparison."""

    identity: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """All identity checks for one (N, cells) case."""

    N: int
    cells: CellSpec
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_text(self) -> str:
        degs = ",".join(str(g) for g in self.cells.degeneracies)
        lines = []
        for check in self.checks:
            status = "ok" if check.passed else "FAIL"
            lines.append(
                f"{status} N={self.N} cells=({degs}) {check.identity}: {check.detail}"
            )
        return "\n".join(lines)


def _occupation_check(
    identity: str,
    tally: EnumerationResult,
    predict: Callable[[OccupationVector], int | None],
) -> IdentityCheck:
    """Enumerated count == predicted count for every occupation vector,
    in sorted order; a failure names the first mismatch."""
    for occ, seen in sorted(tally.by_occupation.items(), key=lambda kv: kv[0].counts):
        predicted = predict(occ)
        if predicted != seen:
            return IdentityCheck(
                identity,
                False,
                f"occupation {occ.counts}: enumerated {seen}, formula {predicted}",
            )
    return IdentityCheck(
        identity, True, f"{len(tally.by_occupation)} occupation vectors agree"
    )


def verify_counting(
    N: int, cells: CellSpec | tuple[int, ...]
) -> VerificationReport:
    """Compare the counting formulas against exhaustive enumeration.

    Checks, per occupation vector and in aggregate:
      * labeled assignment counts == multiplicity_distinguishable
      * labeled total == classical_symbol_states of the pooled substates
      * multiset pattern counts == product of multiplicity_bose_exact,
        called once per distinct (n_i, g_i) of the case
    Failures carry the first counterexample found.
    """
    cells = _cell_spec(cells)
    degs = cells.degeneracies

    labeled = enumerate_assignments(N, cells)
    distinguishable = _occupation_check(
        "distinguishable-multiplicity",
        labeled,
        lambda occ: combinatorics.multiplicity_distinguishable(occ, degs).value,
    )
    predicted_total = combinatorics.classical_symbol_states(
        N, cells.total_substates
    ).value
    total = IdentityCheck(
        "classical-total",
        labeled.total == predicted_total,
        f"enumerated {labeled.total}, formula {predicted_total}",
    )
    # one public call per distinct (n_i, g_i); the values live for this call only
    bose_exact = combinatorics.multiplicity_bose_exact
    bose_values: dict[tuple[int, int], int | None] = {}

    def bose_product(occ: OccupationVector) -> int:
        product = 1
        for pair in zip(occ.counts, degs):
            if pair not in bose_values:
                bose_values[pair] = bose_exact(*pair).value
            product *= bose_values[pair]
        return product

    bose = _occupation_check(
        "bose-multiplicity", enumerate_indistinct(N, cells), bose_product
    )
    return VerificationReport(N=N, cells=cells, checks=(distinguishable, total, bose))
