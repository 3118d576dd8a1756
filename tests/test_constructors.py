"""Contract of the validated value types GasCompartment, SpeciesOverlap, LevelSpec.

Each is a slotted frozen dataclass with a hand-written ``__init__`` that
validates and stores every field once.  These tests pin what callers may
rely on: pickling and copying, ``dataclasses.replace``/``fields``,
equality, hashing and repr, no instance ``__dict__``, and the exact
message of every rejection.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import tracemalloc
import weakref

import pytest

from mixent.errors import DomainError
from mixent.mixing import GasCompartment, MixingScenario, SpeciesOverlap
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


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_containers_of_slotted_members_pickle(protocol):
    ensemble = EnsembleSpec(levels=(LevelSpec(0.0), LevelSpec(1.5, 3)), N=10, T=2.0)
    scenario = MixingScenario.from_compartments(
        (GasCompartment("argon", 10, 0.5, 1.0), GasCompartment("xenon", 20, 1.0, 1.0)),
        overlaps=(SpeciesOverlap("xenon", "argon", 0.25),),
    )
    for obj in (ensemble, scenario):
        back = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert back == obj
        assert repr(back) == repr(obj)


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

