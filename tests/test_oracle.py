"""The enumeration oracle itself, and its agreement with the formulas."""

from __future__ import annotations

import inspect
import itertools
import math
import pickle
import tracemalloc
from collections import Counter

import pytest

import mixent.combinatorics
import mixent.oracle
from mixent.combinatorics import Count, OccupationVector
from mixent.errors import OracleSizeError
from mixent.oracle import (
    FIXED_CELL_SUITE,
    CellSpec,
    enumerate_assignments,
    enumerate_indistinct,
    verify_counting,
)


def occ(*counts):
    return OccupationVector(tuple(counts))


def naive_tally(configurations, degs):
    """Per-configuration reference: build each occupation vector by hand."""
    cell_of = [i for i, g in enumerate(degs) for _ in range(g)]
    tally = Counter()
    for configuration in configurations:
        counts = [0] * len(degs)
        for substate in configuration:
            counts[cell_of[substate]] += 1
        tally[tuple(counts)] += 1
    grouped = {occ(*counts): n for counts, n in tally.items()}
    return grouped, sum(tally.values())


def naive_assignments(N, degs):
    return naive_tally(itertools.product(range(sum(degs)), repeat=N), degs)


def naive_indistinct(N, degs):
    return naive_tally(
        itertools.combinations_with_replacement(range(sum(degs)), N), degs
    )


# every layout of 1-4 cells with degeneracies 1-3, N = 0..7 where G^N <= 50,000
REFERENCE_LAYOUTS = [
    degs
    for m in range(1, 5)
    for degs in itertools.product((1, 2, 3), repeat=m)
]


def reference_cases(degs):
    return [N for N in range(8) if sum(degs) ** N <= 50_000]


def block_depth(G):
    """Suffix depth the tally uses before the N cap: largest k, G^k <= 4096."""
    k = 0
    while G ** (k + 1) <= 4096:
        k += 1
    return k


class TestEnumerateAssignments:
    def test_two_cells_two_particles(self):
        result = enumerate_assignments(2, (1, 1))
        assert result.total == 4
        assert result.by_occupation == {
            occ(2, 0): 1,
            occ(1, 1): 2,
            occ(0, 2): 1,
        }

    def test_degenerate_cell(self):
        result = enumerate_assignments(3, (2, 1))
        assert result.total == 27
        assert result.by_occupation[occ(2, 1)] == 12

    def test_zero_particles(self):
        result = enumerate_assignments(0, (2, 2))
        assert result.total == 1
        assert result.by_occupation == {occ(0, 0): 1}

    @pytest.mark.parametrize("enumerate_", [enumerate_assignments, enumerate_indistinct])
    def test_zero_particles_build_nothing_per_substate(self, enumerate_):
        # one empty configuration, whatever the degeneracy: no weight per
        # substate is needed to enumerate it
        tracemalloc.start()
        try:
            result = enumerate_(0, (10**6,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total == 1
        assert result.by_occupation == {occ(0): 1}
        assert peak < 1_000_000

    def test_cell_doubling_adds_log_two_per_particle(self):
        for N in (1, 3, 5):
            single = enumerate_assignments(N, (1, 1)).total
            doubled = enumerate_assignments(N, (2, 2)).total
            assert math.log(doubled) - math.log(single) == pytest.approx(
                N * math.log(2), rel=1e-12
            )

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            enumerate_assignments(20, (3, 2))

    @pytest.mark.parametrize("N, degs", [(10**5, (1, 1)), (10**6, (1,)), (27, (1,))])
    def test_size_guard_decides_before_any_power(self, N, degs):
        # 2**100000 has too many digits for an error message, and one
        # substate passes a G**N guard at any N although the work grows
        with pytest.raises(OracleSizeError, match="exceeds the guard") as exc:
            enumerate_assignments(N, degs)
        assert len(str(exc.value)) < 200

    def test_one_substate_below_the_guard(self):
        result = enumerate_assignments(26, (1,))
        assert result.total == 1
        assert result.by_occupation == {occ(26): 1}

    def test_deterministic(self):
        a = enumerate_assignments(4, (2, 2))
        b = enumerate_assignments(4, (2, 2))
        assert a.by_occupation == b.by_occupation
        assert a.total == b.total


class TestReferenceEquivalence:
    def test_sweep_covers_every_block_shape(self):
        shapes = set()
        wide = False
        for degs in REFERENCE_LAYOUTS:
            G = sum(degs)
            for N in reference_cases(degs):
                if G > 1:
                    k = block_depth(G)
                    shapes.add("N<k" if N < k else "N=k" if N == k else "N>k")
                wide = wide or G > N + 1
        assert shapes == {"N<k", "N=k", "N>k"}
        assert wide

    @pytest.mark.parametrize("degs", REFERENCE_LAYOUTS, ids=str)
    def test_matches_per_assignment_loop(self, degs):
        for N in reference_cases(degs):
            labeled = enumerate_assignments(N, degs)
            assert (labeled.by_occupation, labeled.total) == naive_assignments(
                N, degs
            ), (N, degs)
            unlabeled = enumerate_indistinct(N, degs)
            assert (
                unlabeled.by_occupation,
                unlabeled.total,
            ) == naive_indistinct(N, degs), (N, degs)


class TestIndependence:
    def test_no_closed_form_consulted(self, monkeypatch):
        expected = naive_assignments(6, (3, 2))

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle consulted a closed form")

        for name in ("factorial", "comb", "lgamma"):
            monkeypatch.setattr(math, name, forbidden)
        for name in mixent.combinatorics.__all__:
            if inspect.isfunction(getattr(mixent.combinatorics, name)):
                monkeypatch.setattr(mixent.combinatorics, name, forbidden)
                # a name imported into the oracle would dodge the patch above
                monkeypatch.setattr(mixent.oracle, name, forbidden, raising=False)
        result = enumerate_assignments(6, (3, 2))
        assert (result.by_occupation, result.total) == expected
        assert result.total == 5**6

    def test_tally_memory_is_bounded(self):
        # 5^9 assignments tallied through a suffix block of at most 4096 keys
        tracemalloc.start()
        try:
            result = enumerate_assignments(9, (3, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total == 5**9
        assert peak < 1_000_000


class TestCheckedOnce:
    def test_decoded_vectors_are_not_checked_again(self, monkeypatch):
        labeled, unlabeled = naive_assignments(4, (2, 1)), naive_indistinct(4, (2, 1))

        def refuse(self):
            raise AssertionError("a decoded occupation vector was checked again")

        monkeypatch.setattr(OccupationVector, "__post_init__", refuse)
        for result, expected in (
            (enumerate_assignments(4, (2, 1)), labeled),
            (enumerate_indistinct(4, (2, 1)), unlabeled),
        ):
            assert (result.by_occupation, result.total) == expected
            for vector in result.by_occupation:
                assert type(vector.counts) is tuple
                assert all(type(n) is int for n in vector.counts)
                assert pickle.loads(pickle.dumps(vector)) == vector
        assert verify_counting(4, (2, 2)).ok


class TestOneResultBuilder:
    def test_both_enumerators_build_through_decode(self, monkeypatch):
        """Every EnumerationResult is made by oracle._decode: with it
        refusing, both enumerators raise, and the result each returns is
        the one it built."""
        build = mixent.oracle._decode
        built = []

        def refuse(*args):
            raise AssertionError("refused")

        def record(*args):
            built.append(build(*args))
            return built[-1]

        for N, cells in ((0, (1,)), (3, (2, 1))):
            for enumerate_ in (enumerate_assignments, enumerate_indistinct):
                monkeypatch.setattr(mixent.oracle, "_decode", refuse)
                with pytest.raises(AssertionError, match="refused"):
                    enumerate_(N, cells)
                monkeypatch.setattr(mixent.oracle, "_decode", record)
                assert enumerate_(N, cells) is built[-1]


class TestEnumerateIndistinct:
    def test_single_cell(self):
        result = enumerate_indistinct(3, (2,))
        assert result.total == 4
        assert result.by_occupation == {occ(3): 4}

    def test_one_particle(self):
        result = enumerate_indistinct(1, (4,))
        assert result.total == 4

    def test_two_cells_mixed_degeneracy(self):
        # 4 unlabeled particles over cells with 2 and 3 substates:
        # same as multisets of size 4 from 5 substates
        result = enumerate_indistinct(4, (2, 3))
        assert result.total == 70
        patterns = {o.counts: c for o, c in result.by_occupation.items()}
        assert patterns[(4, 0)] == 5  # multisets of size 4 from 2 substates
        assert patterns[(0, 4)] == 15  # multisets of size 4 from 3 substates

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            enumerate_indistinct(60, (15, 15))

    @pytest.mark.parametrize("N, degs", [(10**5, (10**5,)), (10**7, (1,))])
    def test_size_guard_decides_before_any_binomial(self, N, degs):
        # C(199999, 100000) has too many digits for an error message, and
        # one substate passes a pattern-count guard although the work grows
        with pytest.raises(OracleSizeError, match="exceeds the guard") as exc:
            enumerate_indistinct(N, degs)
        assert len(str(exc.value)) < 200


class TestVerifyCounting:
    def test_passes_small_cases(self):
        for cells in FIXED_CELL_SUITE:
            for N in range(5):
                report = verify_counting(N, cells)
                assert report.ok, report.as_text()

    def test_report_text_structure(self):
        report = verify_counting(3, (2, 1))
        text = report.as_text()
        assert "distinguishable-multiplicity" in text
        assert "bose-multiplicity" in text
        assert "classical-total" in text
        assert "FAIL" not in text

    def test_mutated_formula_is_caught(self, monkeypatch):
        # corrupt the distinguishable count and make sure the oracle notices
        original = mixent.combinatorics.multiplicity_distinguishable

        def corrupted(occ_arg, degs, **kwargs):
            true_count = original(occ_arg, degs, **kwargs)
            return Count.from_int(true_count.value + 1)

        monkeypatch.setattr(
            mixent.combinatorics, "multiplicity_distinguishable", corrupted
        )
        report = verify_counting(3, (2, 1))
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert failed
        assert "enumerated" in failed[0].detail
        assert "formula" in failed[0].detail

    def test_mutated_bose_formula_is_caught(self, monkeypatch):
        original = mixent.combinatorics.multiplicity_bose_exact

        def corrupted(n, g, **kwargs):
            true_count = original(n, g, **kwargs)
            return Count.from_int(true_count.value * 2)

        monkeypatch.setattr(
            mixent.combinatorics, "multiplicity_bose_exact", corrupted
        )
        report = verify_counting(2, (2, 2))
        assert not report.ok


class TestCellSpec:
    def test_total_substates(self):
        assert CellSpec((3, 2)).total_substates == 5

    def test_empty_rejected(self):
        with pytest.raises(OracleSizeError):
            CellSpec(())

    def test_zero_degeneracy_rejected(self):
        with pytest.raises(Exception):
            CellSpec((1, 0))


@pytest.fixture
def tallies(monkeypatch):
    """Per Counter the oracle makes, the number of keys each update gave it."""
    made = []

    class RecordingCounter(Counter):
        def __init__(self, *args, **kwds):
            self.received = []
            made.append(self.received)
            super().__init__(*args, **kwds)

        def update(self, iterable=None, /, **kwds):
            if iterable is not None:
                iterable = list(iterable)
                self.received.append(len(iterable))
            super().update(iterable, **kwds)

    monkeypatch.setattr(mixent.oracle, "Counter", RecordingCounter)
    return made


# N < k, N = k and N > k against the 4096-key suffix block, then wide cells
# (G > 4096), where the suffix is one particle deep
COUNTED_ONCE_CASES = [
    (2, (3, 2)),
    (5, (3, 2)),
    (7, (3, 2)),
    (1, (10**5,)),
    (2, (4096, 1)),
]


class TestEveryConfigurationCountedOnce:
    def test_cases_cover_every_block_shape(self):
        shapes = {
            "G>4096" if sum(degs) > 4096
            else "N<k" if N < block_depth(sum(degs))
            else "N=k" if N == block_depth(sum(degs))
            else "N>k"
            for N, degs in COUNTED_ONCE_CASES
        }
        assert shapes == {"N<k", "N=k", "N>k", "G>4096"}

    @pytest.mark.parametrize("N, degs", COUNTED_ONCE_CASES, ids=str)
    def test_labeled_tally_receives_one_key_per_assignment(
        self, tallies, N, degs
    ):
        # one tally, fed every assignment's own key: a table of suffix
        # counts multiplied into it, or a DP over particles, feeds fewer
        result = enumerate_assignments(N, degs)
        assert [sum(received) for received in tallies] == [sum(degs) ** N]
        assert result.total == sum(degs) ** N

    # the last case has C(4098, 2) = 8.4 million patterns; (1, (10**5,))
    # stands for the wide cells here
    @pytest.mark.parametrize("N, degs", COUNTED_ONCE_CASES[:-1], ids=str)
    def test_multiset_tally_receives_one_key_per_pattern(
        self, tallies, N, degs
    ):
        result = enumerate_indistinct(N, degs)
        patterns = math.comb(sum(degs) + N - 1, N)
        assert [sum(received) for received in tallies] == [patterns]
        assert result.total == patterns

    def test_one_wide_particle_is_one_update(self, tallies):
        # the one-particle suffix is the weight tuple: no per-assignment loop
        result = enumerate_assignments(1, (10**5,))
        assert tallies == [[10**5]]
        assert result.by_occupation == {occ(1): 10**5}
