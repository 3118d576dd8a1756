"""Scenario file parsing, error locations, and round-tripping."""

from __future__ import annotations

import math
import random
import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixent import scenario_io
from mixent.combinatorics import StirlingForm
from mixent.errors import DomainError, ScenarioParseError
from mixent.mixing import GasCompartment, MixingScenario, SpeciesOverlap, Weighting
from mixent.scenario_io import (
    ScenarioFile,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from mixent.statmech import CountingModel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
README = SCENARIO_DIR.parent / "README.md"

FULL_TEXT = """\
# two gases at matched density
id = demo
model = gibbs-corrected
stirling_form = two-term
weighting = complement
compartment = argon   500 0.5 1.0
compartment = krypton 500 0.5 1.0
overlap = argon krypton 0.25
final_volume = 1.0
"""


def test_module_docstring_names_every_key_layout_and_choice():
    # the docstring's key list, one line per key, against the key tables
    listed = scenario_io.__doc__.split("Keys, ", 1)[1].split("Example::", 1)[0]
    rows = {line.split()[0]: line for line in listed.splitlines()[1:] if line.strip()}
    assert rows.keys() == {*scenario_io._SCALARS, *scenario_io._LISTS}
    for key, row in scenario_io._LISTS.items():
        assert f" {row[0]} " in f"{rows[key]} ", key
    for key in ("model", "stirling_form", "weighting"):
        words = set(re.split(r"[\s|]+", rows[key]))
        assert {member.value for member in scenario_io._SCALARS[key]} <= words, key


class TestParse:
    def test_full_file(self):
        sf = parse_scenario(FULL_TEXT)
        assert sf.id == "demo"
        s = sf.scenario
        assert s.model is CountingModel.GIBBS_CORRECTED
        assert s.stirling_form is StirlingForm.TWO_TERM
        assert s.weighting is Weighting.COMPLEMENT
        assert len(s.compartments) == 2
        assert s.compartments[1].species == "krypton"
        assert s.compartments[1].N == 500
        assert s.final_volume == 1.0
        assert s.pair_overlap("argon", "krypton") == 0.25

    def test_defaults(self):
        text = "compartment = a 10 1.0 1.0\n"
        sf = parse_scenario(text)
        assert sf.id == "scenario"
        assert sf.scenario.model is CountingModel.GIBBS_CORRECTED
        assert sf.scenario.stirling_form is StirlingForm.TWO_TERM
        assert sf.scenario.weighting is Weighting.COMPLEMENT
        assert sf.scenario.final_volume == 1.0  # summed compartment volumes

    def test_comments_and_blanks_ignored(self):
        text = "\n# hello\n\ncompartment = a 10 1.0 1.0\n\n# bye\n"
        assert parse_scenario(text).scenario.total_particles == 10


class TestParseErrors:
    def test_missing_equals(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("compartment a 10 1.0 1.0\n")
        assert exc.value.line == 1
        assert exc.value.column == 1

    def test_unknown_key_location(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("compartment = a 10 1.0 1.0\nvolume = 3\n")
        assert exc.value.line == 2
        assert exc.value.column == 1
        assert "unknown key" in str(exc.value)

    def test_duplicate_scalar_key(self):
        text = "id = x\nid = y\ncompartment = a 1 1.0 1.0\n"
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert exc.value.line == 2

    def test_bad_integer_column(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("compartment = a ten 1.0 1.0\n")
        assert exc.value.line == 1
        assert exc.value.column == 17  # points at 'ten'

    def test_wrong_token_count(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("compartment = a 10 1.0\n")
        assert "4 tokens" not in str(exc.value)  # message says what's needed
        assert "<species> <N> <V> <T>" in str(exc.value)

    def test_bad_enum_value(self):
        text = "model = quantum\ncompartment = a 1 1.0 1.0\n"
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(text)
        assert "model must be one of" in str(exc.value)

    def test_no_compartments(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("id = empty\n")
        assert "no compartments" in str(exc.value)
        assert exc.value.line is None

    def test_invalid_species_token(self):
        with pytest.raises(ScenarioParseError):
            parse_scenario("compartment = a=b 10 1.0 1.0\n")

    def test_source_in_message(self):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario("bogus = 1\n", source="demo.scenario")
        assert str(exc.value).startswith("demo.scenario:1:")


# One bad line after a comment and a good compartment, so errors land on
# line 3: (the bad line, line, column, message).  Expected values are those
# the parser has always reported, including for runs of spaces and tabs.
_PRELUDE = "# header\ncompartment = a 10 1.0 1.0\n"
_ABSENT = "overlap names species {!r}, which no compartment holds"
ERROR_TABLE = [
    ("compartment = b ten 1.0 1.0", 3, 17, "N must be an integer, got 'ten'"),
    ("compartment = b 1.5 1.0 1.0", 3, 17, "N must be an integer, got '1.5'"),
    ("compartment = b 1e3 1.0 1.0", 3, 17, "N must be an integer, got '1e3'"),
    ("compartment = b 10 big 1.0", 3, 20, "V must be a number, got 'big'"),
    ("compartment = b 10 1.0 hot", 3, 24, "T must be a number, got 'hot'"),
    ("overlap = a b high", 3, 15, "overlap must be a number, got 'high'"),
    ("compartment = b! 10 1.0 1.0", 3, 15, "invalid species token 'b!'"),
    ("overlap = a? b 0.5", 3, 11, "invalid species token 'a?'"),
    ("overlap = a b# 0.5", 3, 13, "invalid species token 'b#'"),
    (
        "compartment = b 10 1.0",
        3,
        15,
        "compartment needs '<species> <N> <V> <T>', got 3 tokens",
    ),
    (
        "compartment = b 10 1.0 1.0 extra",
        3,
        15,
        "compartment needs '<species> <N> <V> <T>', got 5 tokens",
    ),
    ("overlap = a b", 3, 11, "overlap needs '<species_a> <species_b> <q>', got 2 tokens"),
    (
        "overlap = a b 0.5 0.5",
        3,
        11,
        "overlap needs '<species_a> <species_b> <q>', got 4 tokens",
    ),
    ("compartment =", 3, 14, "empty value for key 'compartment'"),
    ("overlap =   \t ", 3, 15, "empty value for key 'overlap'"),
    ("stirling_form =\t ", 3, 18, "empty value for key 'stirling_form'"),
    # several spaces and tabs between and around the tokens
    ("compartment   =   b    10     big   1.0", 3, 31, "V must be a number, got 'big'"),
    ("compartment\t=\tb\t10\t1.0\thot", 3, 24, "T must be a number, got 'hot'"),
    ("  overlap =\t a \t b\t\tq", 3, 21, "overlap must be a number, got 'q'"),
    ("\tcompartment=b 10 1.0 x", 3, 23, "T must be a number, got 'x'"),
    ("overlap = a  b! 0.5", 3, 14, "invalid species token 'b!'"),
    (
        "compartment = b  \t 10 \t 1.0",
        3,
        15,
        "compartment needs '<species> <N> <V> <T>', got 3 tokens",
    ),
    # keys and scalar values
    ("no equals sign here", 3, 1, "expected 'key = value'"),
    ("  colour = red", 3, 3, "unknown key 'colour'"),
    ("final_volume =  lots", 3, 17, "final_volume must be a number, got 'lots'"),
    (
        " weighting = sideways",
        3,
        14,
        "weighting must be one of: complement, literal; got 'sideways'",
    ),
    ("id = a\n\t id = b", 4, 3, "duplicate key 'id'"),
    # numbers are ASCII without '_': int() and float() would read these
    ("compartment = b 1_000 1.0 1.0", 3, 17, "N must be an integer, got '1_000'"),
    (
        "compartment = b \u0661\u0660 1.0 1.0",
        3,
        17,
        "N must be an integer, got '\u0661\u0660'",
    ),
    ("compartment = b 10 \uff11.5 1.0", 3, 20, "V must be a number, got '\uff11.5'"),
    ("compartment = b 10 1.0 1_0.0", 3, 24, "T must be a number, got '1_0.0'"),
    ("overlap = a b 0.\u0665", 3, 15, "overlap must be a number, got '0.\u0665'"),
    ("final_volume = 1_0.0", 3, 16, "final_volume must be a number, got '1_0.0'"),
    # lines break at \n, \r\n and \r only, as an editor numbers them
    (
        "compartment = b 10 1.0 1.0\x0cbogus = 1",
        3,
        15,
        "compartment needs '<species> <N> <V> <T>', got 7 tokens",
    ),
    ("id = a\x85b\nbogus = 1", 4, 1, "unknown key 'bogus'"),
    ("id = a\u2028b\u2029\x0b\x1c\nbogus = 1", 4, 1, "unknown key 'bogus'"),
    ("id = a\r\nbogus = 1", 4, 1, "unknown key 'bogus'"),
    ("id = a\r  bogus = 1", 4, 3, "unknown key 'bogus'"),
    (
        "compartment = b 10 1.0 1.0\ncompartment = c 10 1.0 cold",
        4,
        24,
        "T must be a number, got 'cold'",
    ),
    # an overlap row naming a species no compartment row names is found once
    # every line has parsed: a later malformed line is reported first, and
    # the physics (here unequal temperatures) is checked only after it
    ("overlap = a krypto 1.0", 3, 13, _ABSENT.format("krypto")),
    ("overlap =  argn\ta 1.0", 3, 12, _ABSENT.format("argn")),
    (
        "overlap = a b 0.5\ncompartment = b 10 1.0 1.0\noverlap = c a 0.5",
        5,
        11,
        _ABSENT.format("c"),
    ),
    ("overlap = a zz 0.5\ncompartment = b 10 1.0 hot", 4, 24, "T must be a number, got 'hot'"),
    ("compartment = b 10 1.0 2.0\noverlap = b zz 0.5", 4, 13, _ABSENT.format("zz")),
]


@pytest.mark.parametrize("bad, line, column, message", ERROR_TABLE)
def test_parse_error_location(bad, line, column, message):
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(_PRELUDE + bad + "\n")
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"<string>:{line}:{column}: {message}"


# Values convert on their own line, so of several errors the first malformed
# line is the one reported, with its single-error message: each text errs on
# line 1 and again later (a DomainError, no compartments, a duplicate key)
_BAD_MODEL = (
    "<string>:1:9: model must be one of: distinguishable, gibbs-corrected, "
    "bose-approximate; got 'bogus'"
)
FIRST_ERRORS = {
    "then-domain-error": ("model = bogus\ncompartment = a -5 1.0 1.0\n", _BAD_MODEL),
    "then-no-compartments": (
        "weighting = nope\n",
        "<string>:1:13: weighting must be one of: complement, literal; got 'nope'",
    ),
    "then-duplicate-key": ("model = bogus\nmodel = exact\n", _BAD_MODEL),
}


@pytest.mark.parametrize("text, message", FIRST_ERRORS.values(), ids=FIRST_ERRORS)
def test_first_malformed_line_is_reported(text, message):
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == 1
    assert str(exc.value) == message


class TestDomainVsParse:
    def test_unphysical_values_are_domain_errors(self):
        # lexes fine, fails physics: different temperatures
        text = (
            "compartment = a 10 1.0 1.0\n"
            "compartment = b 10 1.0 2.0\n"
        )
        with pytest.raises(DomainError):
            parse_scenario(text)

    def test_zero_particles_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_scenario("compartment = a 0 1.0 1.0\n")

    def test_wrong_final_volume_is_domain_error(self):
        text = "compartment = a 10 1.0 1.0\nfinal_volume = 5.0\n"
        with pytest.raises(DomainError):
            parse_scenario(text)


_LABELS = st.text(string.ascii_letters + string.digits + "_.+-", min_size=1)
# ids that serialize_scenario accepts: one line, no outer whitespace
_IDS = st.text(
    st.characters(blacklist_characters="\n\r"), min_size=1
).filter(lambda s: s == s.strip())
_POSITIVE = {"min_value": 0.0, "exclude_min": True, "allow_infinity": False}


@st.composite
def _scenario_files(draw):
    """A ScenarioFile that serialize_scenario writes.

    Up to 8 compartments, labels drawn from a pool (so a label may repeat
    and an overlap may name one that no compartment holds), N up to 1e18,
    V below 1e307 so the volume sum stays finite, one T, overlaps on
    distinct pairs with q in [0, 1], and final_volume left out or given
    as the volume sum.
    """
    pool = draw(st.lists(_LABELS, min_size=1, max_size=5, unique=True))
    T = draw(st.floats(**_POSITIVE))
    compartments = draw(
        st.lists(
            st.builds(
                GasCompartment,
                st.sampled_from(pool),
                st.integers(1, 10**18),
                st.floats(max_value=1e307, **_POSITIVE),
                st.just(T),
            ),
            min_size=1,
            max_size=8,
        )
    )
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i + 1 :]]
    overlaps = draw(
        st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    )
    v_sum = math.fsum(c.V for c in compartments)
    scenario = MixingScenario(
        compartments=compartments,
        final_volume=draw(st.sampled_from([None, v_sum])),
        overlaps=[
            SpeciesOverlap(a, b, draw(st.floats(0.0, 1.0))) for a, b in overlaps
        ],
        model=draw(st.sampled_from(CountingModel)),
        stirling_form=draw(st.sampled_from(StirlingForm)),
        weighting=draw(st.sampled_from(Weighting)),
    )
    return ScenarioFile(draw(_IDS), scenario)


def _labelled(species, overlaps):
    """One compartment per label in ``species`` and q = 0.5 on each pair."""
    return MixingScenario(
        compartments=tuple(GasCompartment(s, 10, 1.0, 1.0) for s in species),
        overlaps=tuple(SpeciesOverlap(a, b, 0.5) for a, b in overlaps),
    )


_UNREADABLE = (
    "species {!r} cannot be serialized: a label is letters, digits and _ . + - only"
)
_UNHELD = (
    "species {!r} cannot be serialized: an overlap names it, but no compartment holds it"
)
# (compartment labels, overlap pairs, the label refused).  Of all labels,
# sorted, the first faulty one is refused; a label that is both unreadable
# and unheld gets the unreadable message.
UNREADABLE_FIRST = {
    "overlap-only": (("a",), (("a", "b c"),), "b c"),
    "before-an-unheld-label": (("a", "b c"), (("a", "z"),), "b c"),
    "before-a-later-unreadable-label": (("z z", "b#"), (("b#", "z z"),), "b#"),
    "unheld-too-before-an-unheld-label": (("a",), (("a", "b c"), ("a", "z")), "b c"),
}
UNHELD_FIRST = {
    "typo": (("argon", "krypton"), (("argon", "krypto"),), "krypto"),
    "before-an-unreadable-label": (("a", "z z"), (("a", "b"),), "b"),
    "sorted-not-stored-order": (("a",), (("a", "y"), ("a", "x")), "x"),
}


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        sf = parse_scenario(FULL_TEXT)
        text = serialize_scenario(sf)
        again = parse_scenario(text)
        assert again == sf

    def test_repeated_round_trip_is_fixed_point(self):
        sf = parse_scenario(FULL_TEXT)
        once = serialize_scenario(sf)
        twice = serialize_scenario(parse_scenario(once))
        assert once == twice

    def test_shipped_scenarios_round_trip(self):
        paths = sorted(SCENARIO_DIR.glob("*.scenario"))
        assert len(paths) >= 5
        for path in paths:
            sf = load_scenario(path)
            again = parse_scenario(
                serialize_scenario(sf), default_id=path.stem
            )
            assert again == sf, path.name

    @pytest.mark.parametrize("species", ["argon gas", "ar#1", "\u00e9"])
    def test_unreadable_species_is_refused(self, species):
        scenario = MixingScenario(compartments=(GasCompartment(species, 10, 1.0, 1.0),))
        with pytest.raises(DomainError) as exc:
            serialize_scenario(ScenarioFile("demo", scenario))
        assert str(exc.value) == _UNREADABLE.format(species)

    @pytest.mark.parametrize(
        "species, overlaps, label", UNREADABLE_FIRST.values(), ids=UNREADABLE_FIRST
    )
    def test_unreadable_overlap_species_is_refused(self, species, overlaps, label):
        with pytest.raises(DomainError) as exc:
            serialize_scenario(ScenarioFile("demo", _labelled(species, overlaps)))
        assert str(exc.value) == _UNREADABLE.format(label)

    @pytest.mark.parametrize(
        "species, overlaps, label", UNHELD_FIRST.values(), ids=UNHELD_FIRST
    )
    def test_overlap_species_no_compartment_holds_is_refused(
        self, species, overlaps, label
    ):
        # MixingScenario keeps the entry; the text could not carry it back
        scenario = _labelled(species, overlaps)
        assert len(scenario.overlaps) == len(overlaps)
        with pytest.raises(DomainError) as exc:
            serialize_scenario(ScenarioFile("typo", scenario))
        assert str(exc.value) == _UNHELD.format(label)

    def test_an_unreadable_id_is_reported_before_any_species(self):
        scenario = _labelled(("a b",), (("a b", "c"),))
        with pytest.raises(DomainError) as exc:
            serialize_scenario(ScenarioFile(" x", scenario))
        assert str(exc.value) == (
            "id ' x' cannot be serialized: it must be one non-empty line without "
            "leading or trailing whitespace"
        )

    @pytest.mark.parametrize(
        "scenario_id", ["", "a\nb", " padded ", "a\u2028", "a\rb", "a\r\nb"]
    )
    def test_unreadable_id_is_refused(self, scenario_id):
        sf = parse_scenario("compartment = a 10 1.0 1.0\n")
        with pytest.raises(DomainError, match=f"^id {re.escape(repr(scenario_id))} "):
            serialize_scenario(ScenarioFile(scenario_id, sf.scenario))

    @pytest.mark.parametrize("scenario_id", ["a\x85b", "a\u2028b", "a\x0cb"])
    def test_id_holding_a_unicode_line_separator_round_trips(self, scenario_id):
        scenario = parse_scenario("compartment = a 1 1.0 1.0").scenario
        sf = ScenarioFile(scenario_id, scenario)
        assert parse_scenario(serialize_scenario(sf)) == sf

    def test_every_serializable_scenario_round_trips(self):
        # labels and ids now and then hold spaces, comment marks, line
        # breaks or non-ASCII letters; overlaps come in any order
        rng = random.Random(20261018)

        def draw(k: int) -> str:
            # one draw in ten is a character a label or an id may not hold
            return "".join(
                rng.choice(" #=\t\n\u00e9\u2028")
                if rng.random() < 0.1
                else rng.choice("ab_.+-9")
                for _ in range(k)
            )

        written = refused = 0
        for _ in range(400):
            labels = sorted(
                {draw(rng.randint(1, 4)) for _ in range(3)}
            )
            T = rng.choice((0.5, 1.0, 300.0))
            compartments = tuple(
                GasCompartment(label, rng.randint(1, 10**6), rng.uniform(0.1, 2.0), T)
                for label in labels
            )
            pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
            rng.shuffle(pairs)
            overlaps = tuple(SpeciesOverlap(a, b, rng.random()) for a, b in pairs)
            scenario = MixingScenario(
                compartments=compartments,
                overlaps=overlaps,
                model=rng.choice(list(CountingModel)),
                stirling_form=rng.choice(list(StirlingForm)),
                weighting=rng.choice(list(Weighting)),
            )
            sf = ScenarioFile(draw(rng.randint(0, 6)), scenario)
            try:
                text = serialize_scenario(sf)
            except DomainError:
                refused += 1
                continue
            written += 1
            assert parse_scenario(text) == sf, text
        assert written >= 100 and refused >= 100

    def test_parse_inverts_serialize_as_a_property(self):
        seen = set()

        @settings(derandomize=True, database=None, deadline=None, max_examples=300)
        @given(_scenario_files())
        def check(sf):
            s = sf.scenario
            held = {c.species for c in s.compartments}
            named = {name for o in s.overlaps for name in (o.species_a, o.species_b)}
            if named <= held:
                seen.update((s.model, s.stirling_form, s.weighting))
                assert parse_scenario(serialize_scenario(sf)) == sf
            else:
                seen.add("refused")
                with pytest.raises(DomainError, match="an overlap names it, but no compartment"):
                    serialize_scenario(sf)

        check()
        assert seen == {*CountingModel, *StirlingForm, *Weighting, "refused"}

    def test_readme_example_is_the_shipped_scenario(self):
        section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
        example = section.split("```\n", 2)[1]
        shipped = load_scenario(SCENARIO_DIR / "distinct_half.scenario")
        assert parse_scenario(example) == shipped

    def test_load_uses_stem_as_default_id(self, tmp_path):
        p = tmp_path / "my_case.scenario"
        p.write_text("compartment = a 10 1.0 1.0\n", encoding="utf-8")
        assert load_scenario(p).id == "my_case"

    def test_load_drops_one_byte_order_mark(self, tmp_path):
        (tmp_path / "bom").mkdir()
        plain = tmp_path / "demo.scenario"
        plain.write_text(FULL_TEXT, encoding="utf-8")
        bom = tmp_path / "bom" / "demo.scenario"
        bom.write_bytes(b"\xef\xbb\xbf" + FULL_TEXT.encode())
        assert load_scenario(bom) == load_scenario(plain)
        bom.write_bytes(b"\xef\xbb\xbf" * 2 + FULL_TEXT.encode())
        with pytest.raises(ScenarioParseError, match=r"demo.scenario:1:1: expected"):
            load_scenario(bom)

    def test_decode_error_counts_bytes_from_the_file_start(self, tmp_path):
        p = tmp_path / "bom.scenario"
        p.write_bytes(b"\xef\xbb\xbfid\xff = x\n")
        with pytest.raises(ScenarioParseError, match="at byte 5$"):
            load_scenario(p)

    def test_parse_error_location_text(self):
        assert str(ScenarioParseError("m", source="f", line=3)) == "f:3: m"

    def test_load_reports_path_in_errors(self, tmp_path):
        p = tmp_path / "broken.scenario"
        p.write_text("nope\n", encoding="utf-8")
        with pytest.raises(ScenarioParseError) as exc:
            load_scenario(p)
        assert "broken.scenario" in str(exc.value)

    def test_load_names_the_file_as_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.scenario").write_text("nope\n", encoding="utf-8")
        for given in ("./broken.scenario", ".//broken.scenario"):
            with pytest.raises(ScenarioParseError, match=f"^{re.escape(given)}:1:"):
                load_scenario(given)
        with pytest.raises(TypeError):  # a bytes path, as pathlib refused it
            load_scenario(b"broken.scenario")


@pytest.fixture
def pair_rows(monkeypatch):
    """The ``overlap`` row of the key table, moved under the key ``pair``."""
    rows = dict(scenario_io._LISTS)
    rows["pair"] = rows.pop("overlap")
    monkeypatch.setattr(scenario_io, "_LISTS", rows)


class TestRowKindIsItsTableRow:
    """A row kind is its ``_LISTS`` row: parsing, the held-species check and
    serialization follow the row to a new key with no edit elsewhere."""

    TWO = "compartment = a 10 1.0 1.0\ncompartment = b 10 1.0 1.0\n"

    def test_rows_convert_under_the_new_key(self, pair_rows):
        sf = parse_scenario(self.TWO + "pair = b\ta  0.25\n")
        assert sf.scenario.overlaps == (SpeciesOverlap("a", "b", 0.25),)
        with pytest.raises(ScenarioParseError, match=r":3:1: unknown key 'overlap'$"):
            parse_scenario(self.TWO + "overlap = a b 0.25\n")

    @pytest.mark.parametrize(
        "bad, column, message",
        [
            ("pair = a b high", 12, "overlap must be a number, got 'high'"),
            ("pair =  a? b 0.5", 9, "invalid species token 'a?'"),
            ("pair = a b", 8, "pair needs '<species_a> <species_b> <q>', got 2 tokens"),
            ("pair = a krypto 1.0", 10, "pair names species 'krypto', which no compartment holds"),
        ],
    )
    def test_errors_are_column_exact(self, pair_rows, bad, column, message):
        with pytest.raises(ScenarioParseError) as exc:
            parse_scenario(self.TWO + bad + "\n")
        assert str(exc.value) == f"<string>:3:{column}: {message}"

    def test_round_trip(self, pair_rows):
        sf = parse_scenario(self.TWO + "pair = a b 0.25\n")
        text = serialize_scenario(sf)
        assert text.endswith("compartment = b 10 1.0 1.0\npair = a b 0.25\n")
        assert parse_scenario(text) == sf

    def test_serializer_names_the_new_key(self, pair_rows):
        sf = ScenarioFile("demo", _labelled(("a",), (("a", "b"),)))
        with pytest.raises(DomainError) as exc:
            serialize_scenario(sf)
        assert str(exc.value) == (
            "species 'b' cannot be serialized: a pair names it, but no compartment holds it"
        )
