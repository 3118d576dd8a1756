"""Line-based scenario files: parsing and canonical serialization.

A scenario file is UTF-8 text (a leading byte-order mark is dropped), one
``key = value`` pair per line.  Lines break at ``\\n``, ``\\r\\n`` and ``\\r``
only, so line numbers are an editor's.  Blank lines and lines starting
with ``#`` are ignored.  Numbers are ASCII, without ``_`` separators.
Keys, each one row of the parser's key tables:

    id            optional label for reports (default: file stem)
    model         distinguishable | gibbs-corrected | bose-approximate
    stirling_form two-term | three-term | exact
    weighting     complement | literal
    final_volume  optional; defaults to the summed compartment volumes
    compartment   <species> <N> <V> <T>      (repeatable, at least one)
    overlap       <species_a> <species_b> <q> (repeatable)

Example::

    # two distinct gases at matched density
    id = distinct-full
    compartment = argon   1000 0.5 1.0
    compartment = krypton 1000 0.5 1.0
    overlap = argon krypton 0.0

Each list key (``compartment``, ``overlap``) is declared once, as one row
of the parser's ``_LISTS`` table, which parsing, the held-species check
and serialization all read.  The parser and its tables are the scenario
core's (``_scenario``), which the CLI runs with its own plain records and
``parse_scenario`` and ``load_scenario`` with the public classes.  A token a row converts as a species names
one; outside ``compartment`` rows it must name a species that some
compartment holds.

Malformed text (unknown keys, bad numbers, wrong token counts) raises
ScenarioParseError with file/line/column.  Lines are read in file order
and every value is converted on its own line, so the first malformed line
is the one reported.  Once every line has parsed, a row that names a
species no compartment row names (an overlap row with a typo, say) is a
ScenarioParseError at that species token.  Values that lex fine but
break physics (negative volume, mismatched temperatures) raise
DomainError from the scenario constructors instead; the CLI maps the two
cases to different exit codes.
"""

import os
from dataclasses import dataclass

from . import _EXPORTS, _scenario
from ._scenario import _SPECIES_RE, _labels, _lines
from .errors import DomainError
from .mixing import MixingScenario

__all__ = [*_EXPORTS["scenario_io"]]


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario plus the label it is reported under."""

    id: str
    scenario: MixingScenario


def parse_scenario(
    text: str, *, source: str = "<string>", default_id: str = "scenario"
) -> ScenarioFile:
    """Parse scenario text into a ScenarioFile.

    See the module docstring for the format.  Raises ScenarioParseError
    for malformed text and DomainError for well-formed but unphysical
    values.
    """
    return ScenarioFile(*_scenario.parse(text, source, default_id, MixingScenario))


def load_scenario(path: str | os.PathLike[str]) -> ScenarioFile:
    """Read and parse a scenario file; the default id is the file stem.

    Messages name the file as given: ``./x.scenario`` stays as written.
    One leading byte-order mark is dropped after decoding, so that byte
    offsets in a decode error still count from the start of the file.
    """
    return ScenarioFile(*_scenario.load(path, MixingScenario))


def serialize_scenario(scenario_file: ScenarioFile) -> str:
    """Canonical text for a scenario; parse(serialize(x)) == x.

    Floats are written with repr, which round-trips exactly.  Each list
    key's rows are written by its ``_LISTS`` row, in table order, and each
    key's objects (compartments, overlaps) in their stored order.  A
    scenario the text cannot carry is a DomainError: an id that is not one
    non-empty line without leading or trailing whitespace, a species label
    the parser would reject, or a row (an overlap) that names a species no
    compartment holds.  The id is checked first; then, of all species
    labels in sorted order, the first faulty one is reported, and a label
    both unreadable and unheld as unreadable.
    """
    scenario_id = scenario_file.id
    if (
        not isinstance(scenario_id, str)
        or _lines(scenario_id) != [scenario_id]  # a line break
        or not scenario_id
        or scenario_id != scenario_id.strip()
    ):
        raise DomainError(
            f"id {scenario_id!r} cannot be serialized: it must be one non-empty "
            "line without leading or trailing whitespace"
        )
    s = scenario_file.scenario
    lines = [
        f"id = {scenario_id}",
        f"model = {s.model.value}",
        f"stirling_form = {s.stirling_form.value}",
        f"weighting = {s.weighting.value}",
        f"final_volume = {s.final_volume!r}",
    ]
    named: dict[str, set[str]] = {}  # list key -> the species its rows name
    for key, row in _scenario._LISTS.items():
        objects = getattr(s, row[3])
        named[key] = _labels(row, objects)
        lines += row[4](key, objects)
    held = named["compartment"]
    why: dict[str, str] = {}  # label -> why the text cannot carry it
    for key, labels in named.items():
        for label in labels - held:
            article = "an" if key[0] in "aeiou" else "a"
            why.setdefault(label, f"{article} {key} names it, but no compartment holds it")
    for label in sorted(held.union(why)):  # each label once, in a fixed order
        if _SPECIES_RE.match(label) is None:
            why[label] = "a label is letters, digits and _ . + - only"
        if label in why:
            raise DomainError(f"species {label!r} cannot be serialized: {why[label]}")
    return "\n".join(lines) + "\n"
