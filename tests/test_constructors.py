"""Contract of the validated value types GasCompartment, SpeciesOverlap, LevelSpec,
and of the cell checks behind OccupationVector, CellSpec and the counting calls.

Each is a slotted frozen dataclass with a hand-written ``__init__`` that
validates and stores every field once.  These tests pin what callers may
rely on: pickling and copying, ``dataclasses.replace``/``fields``,
equality, hashing and repr, no instance ``__dict__``, and the exact
message of every rejection.
"""

from __future__ import annotations

import copy
import copyreg
import dataclasses
import io
import math
import pickle
import tracemalloc
import weakref
from functools import partial
from operator import attrgetter

import pytest

from mixent import _check
from mixent.combinatorics import OccupationVector, _as_cells
from mixent.errors import DomainError, OracleSizeError
from mixent.mixing import GasCompartment, MixingScenario, SpeciesOverlap, mixing_entropy
from mixent.oracle import CellSpec
from mixent.statmech import EnsembleSpec, LevelSpec

NAN = float("nan")
INF = float("inf")

# (instance, its repr, its field values in declaration order)
INSTANCES = [
    (
        GasCompartment("argon", 10, 1, 2),
        "GasCompartment(species='argon', N=10, V=1.0, T=2.0)",
        ("argon", 10, 1.0, 2.0),
    ),
    (
        SpeciesOverlap("xenon", "argon", 1),
        "SpeciesOverlap(species_a='argon', species_b='xenon', overlap=1.0)",
        ("argon", "xenon", 1.0),
    ),
    (LevelSpec(1), "LevelSpec(energy=1.0, degeneracy=1)", (1.0, 1)),
    (LevelSpec(-0.5, 3), "LevelSpec(energy=-0.5, degeneracy=3)", (-0.5, 3)),
]
IDS = [type(obj).__name__ for obj, _, _ in INSTANCES]


@pytest.mark.parametrize("obj, text, values", INSTANCES, ids=IDS)
class TestValueSemantics:
    def test_fields_hold_the_coerced_values(self, obj, text, values):
        got = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
        assert got == values
        assert [type(v) for v in got] == [type(v) for v in values]

    def test_repr(self, obj, text, values):
        assert repr(obj) == text

    def test_eq_and_hash_follow_the_fields(self, obj, text, values):
        twin = type(obj)(*values)
        assert twin == obj
        assert hash(twin) == hash(obj) == hash(values)
        assert len({obj, twin}) == 1

    def test_frozen(self, obj, text, values):
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, values[0])

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, obj, text, values, protocol):
        back = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert back == obj
        assert repr(back) == text
        assert hash(back) == hash(obj)

    def test_copy_and_deepcopy(self, obj, text, values):
        for twin in (copy.copy(obj), copy.deepcopy(obj)):
            assert twin == obj
            assert repr(twin) == text

    def test_replace_revalidates(self, obj, text, values):
        assert dataclasses.replace(obj) == obj
        name = dataclasses.fields(obj)[-1].name
        bad = {"T": -1.0, "overlap": 2.0, "degeneracy": 0}[name]
        with pytest.raises(DomainError):
            dataclasses.replace(obj, **{name: bad})

    def test_slotted(self, obj, text, values):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(obj)


def test_ten_thousand_levels_fit_in_under_0_7_MB():
    energies = [i * 1e-3 for i in range(10_000)]
    LevelSpec(0.5)  # anything built on a first call is not counted
    tracemalloc.start()
    try:
        levels = [LevelSpec(e) for e in energies]
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(levels) == 10_000
    assert size < 700_000


def _scenario() -> MixingScenario:
    return MixingScenario.from_compartments(
        (GasCompartment("argon", 10, 0.5, 1.0), GasCompartment("xenon", 20, 1.0, 1.0)),
        overlaps=(SpeciesOverlap("xenon", "argon", 0.25),),
    )


def _assert_same_overlaps(twin: MixingScenario, scenario: MixingScenario) -> None:
    """``twin`` looks overlaps up and mixes exactly as ``scenario`` does."""
    pairs = [("xenon", "argon"), ("argon", "xenon"), ("argon", "argon"), ("a", "b")]
    for pair in pairs:
        assert twin.pair_overlap(*pair) == scenario.pair_overlap(*pair)
    assert twin.pair_overlap("xenon", "argon") == 0.25
    assert repr(mixing_entropy(twin)) == repr(mixing_entropy(scenario))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_containers_of_slotted_members_pickle(protocol):
    ensemble = EnsembleSpec(levels=(LevelSpec(0.0), LevelSpec(1.5, 3)), N=10, T=2.0)
    scenario = _scenario()
    for obj in (ensemble, scenario):
        back = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert back == obj
        assert repr(back) == repr(obj)
    _assert_same_overlaps(back, scenario)  # back: the scenario, pickled last


def _pickled(scenario: MixingScenario, protocol: int, edit) -> bytes:
    """``scenario`` pickled with ``edit(state)`` in place of its state."""

    def reduce(obj):
        new, args, state = obj.__reduce_ex__(2)[:3]
        return new, args, edit(state)

    out = io.BytesIO()
    pickler = pickle.Pickler(out, protocol)
    pickler.dispatch_table = {**copyreg.dispatch_table, MixingScenario: reduce}
    pickler.dump(scenario)
    return out.getvalue()


def _pickled_before_the_table(scenario: MixingScenario, protocol: int) -> bytes:
    """``scenario`` pickled as it was before it carried an overlap table."""

    def edit(state):
        return {k: v for k, v in state.items() if k != "_overlap_table"}

    return _pickled(scenario, protocol, edit)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_scenario_pickled_without_its_table_loads_with_it(protocol):
    scenario = _scenario()
    back = pickle.loads(_pickled_before_the_table(scenario, protocol))
    assert back == scenario
    _assert_same_overlaps(back, scenario)


# fields that break a MixingScenario invariant: temperatures 1.0 and 7.0, and
# one overlap pair listed twice
BROKEN_FIELDS = {
    "non-isothermal": {
        "compartments": (
            GasCompartment("argon", 10, 0.5, 1.0),
            GasCompartment("xenon", 20, 1.0, 7.0),
        )
    },
    "duplicate-pair": {"overlaps": (SpeciesOverlap("argon", "xenon", 0.25),) * 2},
}


def _constructor_error(fields) -> str:
    with pytest.raises(DomainError) as exc:
        dataclasses.replace(_scenario(), **fields)
    return str(exc.value)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("fields", BROKEN_FIELDS.values(), ids=BROKEN_FIELDS)
def test_scenario_unpickled_with_a_broken_state_raises(protocol, fields):
    data = _pickled(_scenario(), protocol, lambda state: {**state, **fields})
    with pytest.raises(DomainError) as exc:
        pickle.loads(data)
    assert str(exc.value) == _constructor_error(fields)


@pytest.mark.parametrize("fields", BROKEN_FIELDS.values(), ids=BROKEN_FIELDS)
@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
def test_scenario_copied_with_a_broken_state_raises(copier, fields):
    scenario = _scenario()
    for name, value in fields.items():
        object.__setattr__(scenario, name, value)
    with pytest.raises(DomainError) as exc:
        copier(scenario)
    assert str(exc.value) == _constructor_error(fields)


def test_scenario_copies_and_replace_keep_the_overlaps():
    scenario = _scenario()
    twins = copy.copy(scenario), copy.deepcopy(scenario), dataclasses.replace(scenario)
    for twin in twins:
        assert twin == scenario
        _assert_same_overlaps(twin, scenario)
    # replace builds the overlap table again, from the new overlaps
    half = (SpeciesOverlap("argon", "xenon", 0.5),)
    other = dataclasses.replace(scenario, overlaps=half)
    assert other.pair_overlap("xenon", "argon") == 0.5
    assert mixing_entropy(other).overlap_applied == 0.5


class TestFieldsAndReplace:
    def test_field_names_and_defaults(self):
        def spec(cls):
            return [(f.name, f.default) for f in dataclasses.fields(cls)]

        missing = dataclasses.MISSING
        assert spec(GasCompartment) == [
            ("species", missing),
            ("N", missing),
            ("V", missing),
            ("T", missing),
        ]
        assert spec(SpeciesOverlap) == [
            ("species_a", missing),
            ("species_b", missing),
            ("overlap", missing),
        ]
        assert spec(LevelSpec) == [("energy", missing), ("degeneracy", 1)]

    def test_keyword_construction(self):
        assert LevelSpec(energy=2.0) == LevelSpec(2.0, 1)
        assert GasCompartment(species="a", N=3, V=1.0, T=1.0).N == 3
        assert SpeciesOverlap(species_a="b", species_b="a", overlap=0.5).species_a == "a"

    def test_replace_changes_one_field(self):
        c = dataclasses.replace(GasCompartment("a", 10, 1.0, 2.0), N=5)
        assert c == GasCompartment("a", 5, 1.0, 2.0)
        o = dataclasses.replace(SpeciesOverlap("b", "a", 0.0), overlap=0.25)
        assert (o.species_a, o.species_b, o.overlap) == ("a", "b", 0.25)
        assert dataclasses.replace(LevelSpec(1.0, 2), energy=3) == LevelSpec(3.0, 2)

    def test_replace_renormalises_the_pair(self):
        o = dataclasses.replace(SpeciesOverlap("a", "m", 0.5), species_b="0")
        assert (o.species_a, o.species_b) == ("0", "a")


class TestSpeciesOverlapPair:
    @pytest.mark.parametrize("a, b", [("argon", "xenon"), ("xenon", "argon")])
    def test_pair_is_sorted(self, a, b):
        o = SpeciesOverlap(a, b, 0.5)
        assert (o.species_a, o.species_b) == ("argon", "xenon")
        assert o.pair == frozenset(("argon", "xenon"))
        assert o == SpeciesOverlap(b, a, 0.5)


# (constructor, arguments, the message the library has always given)
REJECTIONS = [
    (GasCompartment, ("", 10, 1.0, 1.0), "species must be a non-empty string, got ''"),
    (GasCompartment, (7, 10, 1.0, 1.0), "species must be a non-empty string, got 7"),
    (GasCompartment, ("a", 0, 1.0, 1.0), "N must be >= 1, got 0"),
    (GasCompartment, ("a", 2.5, 1.0, 1.0), "N must be an integer, got 2.5"),
    (
        GasCompartment,
        ("a", 10**400, 1.0, 1.0),
        "N must fit a float (at most about 1.8e308), got a 1329-bit integer",
    ),
    (GasCompartment, ("a", 10, -1.0, 1.0), "V must be finite and > 0, got -1.0"),
    (GasCompartment, ("a", 10, INF, 1.0), "V must be finite and > 0, got inf"),
    (GasCompartment, ("a", 10, 1.0, NAN), "T must be finite and > 0, got nan"),
    (SpeciesOverlap, ("", "b", 0.5), "species must be a non-empty string, got ''"),
    (SpeciesOverlap, ("a", None, 0.5), "species must be a non-empty string, got None"),
    (SpeciesOverlap, ("a", "a", 0.5), "overlap of species 'a' with itself is fixed at 1"),
    (SpeciesOverlap, ("a", "b", 1.5), "overlap must lie in [0, 1], got 1.5"),
    (SpeciesOverlap, ("a", "b", -0.1), "overlap must lie in [0, 1], got -0.1"),
    (SpeciesOverlap, ("a", "b", NAN), "overlap must lie in [0, 1], got nan"),
    (SpeciesOverlap, ("a", "b", INF), "overlap must lie in [0, 1], got inf"),
    (LevelSpec, (NAN, 1), "level energy must be finite, got nan"),
    (LevelSpec, (INF, 1), "level energy must be finite, got inf"),
    (LevelSpec, (-INF,), "level energy must be finite, got -inf"),
    (LevelSpec, (0.0, 0), "degeneracy must be >= 1, got 0"),
    (LevelSpec, (0.0, -2), "degeneracy must be >= 1, got -2"),
    (LevelSpec, (0.0, 1.5), "degeneracy must be an integer, got 1.5"),
]


@pytest.mark.parametrize(
    "cls, args, message",
    REJECTIONS,
    ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(REJECTIONS)],
)
def test_rejection_message(cls, args, message):
    with pytest.raises(DomainError) as exc:
        cls(*args)
    assert str(exc.value) == message



# The constructors accept an exact str, int or float in range inline and
# hand every other value to the _check call for its field.  Each field must
# store exactly what that call returns (value and type), or raise exactly
# what it raises, for exact types, subclasses, bool and the range edges.
class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


LIMIT = _check._FLOAT_OVERFLOW  # the least int that float() rejects
GRID = [
    0.0, -0.0, 0.5, 1.0, -2.5, math.nextafter(1.0, 2.0), 5e-324, -5e-324,
    1.7976931348623157e308, INF, -INF, NAN,
    _Float(0.5), _Float(-0.0), _Float(1.0), _Float(INF), _Float(NAN),
    0, 1, 3, -1, LIMIT - 1, LIMIT, _Int(0), _Int(3), _Int(LIMIT - 1), _Int(LIMIT),
    True, False,
    "a", "", _Str("a"), _Str(""), "0.5", b"a", None, (1.0,),
]
try:
    import numpy as np
except ImportError:  # numpy is an optional extra
    pass
else:
    GRID += [
        np.float64(0.5), np.float64(-0.0), np.float64(NAN), np.float32(0.25),
        np.int64(3), np.int64(0), np.uint8(1), np.str_("a"), np.str_(""),
    ]

PARTNER = "partner"  # the other species of a pair; no grid value equals it


def _other_species(o: SpeciesOverlap) -> str:
    return o.species_b if o.species_a == PARTNER else o.species_a


# field -> (an instance with x in that field, the field's stored value,
# the _check call the field makes for x)
FIELDS = {
    "LevelSpec.energy": (
        lambda x: LevelSpec(x, 1),
        attrgetter("energy"),
        partial(_check.finite, "level energy"),
    ),
    "LevelSpec.degeneracy": (
        lambda x: LevelSpec(0.0, x),
        attrgetter("degeneracy"),
        partial(_check.count, "degeneracy"),
    ),
    "GasCompartment.species": (
        lambda x: GasCompartment(x, 1, 1.0, 1.0),
        attrgetter("species"),
        partial(_check.label, "species"),
    ),
    "GasCompartment.N": (
        lambda x: GasCompartment("a", x, 1.0, 1.0),
        attrgetter("N"),
        partial(_check.count, "N"),
    ),
    "GasCompartment.V": (
        lambda x: GasCompartment("a", 1, x, 1.0),
        attrgetter("V"),
        partial(_check.positive, "V"),
    ),
    "GasCompartment.T": (
        lambda x: GasCompartment("a", 1, 1.0, x),
        attrgetter("T"),
        partial(_check.positive, "T"),
    ),
    "SpeciesOverlap.species_a": (
        lambda x: SpeciesOverlap(x, PARTNER, 0.5),
        _other_species,
        partial(_check.label, "species"),
    ),
    "SpeciesOverlap.species_b": (
        lambda x: SpeciesOverlap(PARTNER, x, 0.5),
        _other_species,
        partial(_check.label, "species"),
    ),
    "SpeciesOverlap.overlap": (
        lambda x: SpeciesOverlap("a", "b", x),
        attrgetter("overlap"),
        _check.overlap,
    ),
}


def _outcome(call, x):
    """(type, repr) of what ``call(x)`` returns, or (type, text) of what it raises."""
    try:
        value = call(x)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


@pytest.mark.parametrize("field", FIELDS)
def test_field_stores_or_raises_what_its_check_gives(field):
    build, stored, check = FIELDS[field]
    for x in GRID:
        got = _outcome(lambda v: stored(build(v)), x)
        assert got == _outcome(check, x), f"{field} = {x!r}"


# per constructor: one accepted and one rejected value for each field
ORDER = {
    LevelSpec: ((0.0, 1), (NAN, 0)),
    GasCompartment: (("a", 1, 1.0, 1.0), ("", 0, -1.0, NAN)),
    SpeciesOverlap: (("a", "b", 0.5), ("", None, 2.0)),
}


@pytest.mark.parametrize("cls", ORDER, ids=[cls.__name__ for cls in ORDER])
def test_fields_are_checked_in_declaration_order(cls):
    good, bad = ORDER[cls]
    for k, f in enumerate(dataclasses.fields(cls)):
        # fields before k accepted, k and after rejected: field k reports
        _, _, check = FIELDS[f"{cls.__name__}.{f.name}"]
        with pytest.raises(DomainError) as expected:
            check(bad[k])
        with pytest.raises(DomainError) as exc:
            cls(*good[:k], *bad[k:])
        assert str(exc.value) == str(expected.value)


# The cell checks of the counting calls: _check.occupations and
# _check.degeneracies store an exact int in range inline and hand every
# other item to the per-item call.  Each must store what one call per item
# gives (value and type) or raise what the first bad item raises, and so
# must the containers and the counting calls built on them.
# _check.occupations also owns "at least one cell", as OccupationVector.
def _per_item(field, check):
    def reference(values):
        return tuple([check(v) for v in _check.items(field, values)])

    return reference


_occupations_reference = _per_item(
    "occupation numbers", partial(_check.count, "occupation number", minimum=0)
)
_degeneracies_reference = _per_item(
    "degeneracies", partial(_check.integer, "degeneracy", minimum=1)
)


def _occupation_vector_reference(values):
    ns = _occupations_reference(values)
    if not ns:
        raise DomainError("occupation vector needs at least one cell")
    return ns


def _cell_spec_reference(values):
    gs = _degeneracies_reference(values)
    if not gs:
        raise OracleSizeError("CellSpec needs at least one cell")
    return gs


def _as_cells_reference(occ, degs):
    ns = occ.counts if isinstance(occ, OccupationVector) else _occupation_vector_reference(occ)
    gs = _degeneracies_reference(degs)
    if len(gs) != len(ns):
        raise DomainError(
            f"occupation/degeneracy length mismatch: {len(ns)} cells "
            f"vs {len(gs)} degeneracies"
        )
    return ns, gs


def _typed(value):
    """A stored value with the type of every item, nested tuples included."""
    if isinstance(value, tuple):
        return type(value), [_typed(v) for v in value]
    return type(value), repr(value)


def _typed_outcome(call, *args):
    """_typed of what ``call(*args)`` returns, or (type, text) of what it raises."""
    try:
        return _typed(call(*args))
    except Exception as exc:
        return type(exc), str(exc)


CELL_VALUES = (
    [(), [], None, 5, 2.5, "12", b"", (LIMIT - 1, 0), (0, LIMIT)]
    + [(x,) for x in GRID]
    + [(x, y) for x in GRID for y in GRID]
    + [[x, 0] for x in GRID]
)
CELL_CHECKS = {
    "occupations": (_check.occupations, _occupation_vector_reference),
    "degeneracies": (_check.degeneracies, _degeneracies_reference),
    "OccupationVector": (lambda v: OccupationVector(v).counts, _occupation_vector_reference),
    "CellSpec": (lambda v: CellSpec(v).degeneracies, _cell_spec_reference),
}


@pytest.mark.parametrize("name", CELL_CHECKS)
def test_cells_store_or_raise_what_per_item_checks_give(name):
    check, reference = CELL_CHECKS[name]
    for values in CELL_VALUES:
        assert _typed_outcome(check, values) == _typed_outcome(reference, values), (
            f"{name}({values!r})"
        )
    assert check(n for n in (2, 1)) == (2, 1)  # any iterable, read once


CELL_SIDES = [
    (), (1,), (0, 2), (3, 0, 1), [4, 1], (True,), (-1, 2), (0,), (2, 0),
    (LIMIT,), (_Int(2), 1), (1.0,), ("1",), 5, None,
]


def test_as_cells_checks_occupations_then_degeneracies_then_lengths():
    for occ in CELL_SIDES + [OccupationVector((2, 1))]:
        for degs in CELL_SIDES:
            got = _typed_outcome(_as_cells, occ, degs)
            assert got == _typed_outcome(_as_cells_reference, occ, degs), (occ, degs)
