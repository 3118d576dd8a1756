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
and serialization all read.  A token a row converts as a species names
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

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from operator import attrgetter

from . import _EXPORTS
from ._forms import CountingModel, StirlingForm
from .errors import DomainError, ScenarioParseError
from .mixing import GasCompartment, MixingScenario, SpeciesOverlap, Weighting

__all__ = [*_EXPORTS["scenario_io"]]

_SPECIES_RE = re.compile(r"[A-Za-z0-9_.+\-]+\Z")


def _species(token: str) -> str:
    """A valid species label, or ValueError, as int() and float() convert."""
    if _SPECIES_RE.match(token) is None:
        raise ValueError(token)
    return token


def _ascii(token: str) -> str:
    """``token``, or ValueError for ``_`` or non-ASCII text, which int() reads."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return token


def _compartment_args(toks: list[str], seen: set[str]) -> tuple:
    name, n, v, t = toks
    if name not in seen:
        seen.add(_species(name))
    _ascii(n + v + t)  # the three numbers in one check
    return name, int(n), float(v), float(t)


def _overlap_args(toks: list[str], seen: set[str]) -> tuple:
    a, b, q = toks
    if a not in seen:
        seen.add(_species(a))
    if b not in seen:
        seen.add(_species(b))
    return a, b, float(_ascii(q))


def _lines(text: str) -> list[str]:
    """``text`` split as an editor numbers lines: at \\n, \\r\\n and \\r only."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


# scalar key -> converter
_SCALARS = {
    "model": CountingModel,
    "stirling_form": StirlingForm,
    "weighting": Weighting,
    "final_volume": float,
    "id": str,
}
# list key -> (layout, (name in messages, converter) per token, convert,
# make, the MixingScenario field its objects fill, writer: (key, objects) ->
# lines).  Tokens converted by _species name species; outside compartment
# rows, each must name a species that some compartment holds.
_LISTS = {
    "compartment": (
        "<species> <N> <V> <T>",
        (("species", _species), ("N", int), ("V", float), ("T", float)),
        _compartment_args,
        GasCompartment,
        "compartments",
        lambda key, cs: [f"{key} = {c.species} {c.N} {c.V!r} {c.T!r}" for c in cs],
    ),
    "overlap": (
        "<species_a> <species_b> <q>",
        (("species", _species), ("species", _species), ("overlap", float)),
        _overlap_args,
        SpeciesOverlap,
        "overlaps",
        lambda key, ovs: [f"{key} = {o.species_a} {o.species_b} {o.overlap!r}" for o in ovs],
    ),
}


@functools.cache  # a row's getters, built once, not on each call
def _species_getters(row: tuple) -> tuple[attrgetter, ...]:
    """Getters of the species that an object of a ``_LISTS`` row names: the
    fields of its ``make`` (a dataclass that takes the row's tokens in order)
    filled from the tokens that its ``fields`` convert with _species."""
    return tuple(
        attrgetter(name)
        for name, (_, kind) in zip(row[3].__match_args__, row[1])
        if kind is _species
    )


def _labels(row: tuple, objects) -> set[str]:
    """The species that ``objects`` of a ``_LISTS`` row name."""
    labels: set[str] = set()
    for get in _species_getters(row):
        labels.update(map(get, objects))
    return labels


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

    def fail(message: str, line: int, column: int | None = None) -> ScenarioParseError:
        return ScenarioParseError(message, source=source, line=line, column=column)

    options: dict[str, object] = {}  # scalar key -> converted value
    lists: dict[str, list] = {row[4]: [] for row in _LISTS.values()}  # field -> objects
    seen: set[str] = set()  # tokens found to be valid species in this parse

    # A well-formed list line takes the first branch; everything else
    # (blank lines, comments, scalars, errors) the second.  A list line's
    # columns are worked out only when it is in error.
    for lineno, raw in enumerate(_lines(text), start=1):
        key_part, eq, value_part = raw.partition("=")
        key = key_part.strip()
        toks = value_part.split()
        row = _LISTS.get(key)
        if row is not None:
            layout, fields, convert, make, field, _ = row
            if len(toks) == len(fields):
                try:
                    args = convert(toks, seen)
                except ValueError:
                    # scan the line again, now with columns, for the bad token
                    col0 = len(key_part) + 2  # 1-based column of value_part
                    matches = re.finditer(r"\S+", value_part)
                    for m, (what, kind) in zip(matches, fields):
                        _convert(kind, m.group(), what, fail, lineno, col0 + m.start())
                    raise AssertionError("a value failed to convert, no token did")
                lists[field].append(make(*args))
                continue
        if raw.lstrip()[:1] in ("", "#"):  # a blank line or a comment
            continue
        if not eq:
            raise fail("expected 'key = value'", lineno, 1)
        key_col = len(key_part) - len(key_part.lstrip()) + 1
        if row is None and key not in _SCALARS:
            raise fail(f"unknown key {key!r}", lineno, key_col)
        value_col = len(key_part) + 2 + len(value_part) - len(value_part.lstrip())
        if not toks:
            raise fail(f"empty value for key {key!r}", lineno, value_col)
        if row is not None:
            raise fail(f"{key} needs '{layout}', got {len(toks)} tokens", lineno, value_col)
        if key in options:
            raise fail(f"duplicate key {key!r}", lineno, key_col)
        value = value_part.strip()
        options[key] = _convert(_SCALARS[key], value, key, fail, lineno, value_col)

    if not lists["compartments"]:
        raise ScenarioParseError("scenario declares no compartments", source=source)
    # ``seen`` holds the species of every row kind, so it outgrows the
    # compartments' species only if another row names one no compartment
    # holds; the line and column of the first such token are worked out only then
    held = _labels(_LISTS["compartment"], lists["compartments"])
    if len(seen) > len(held):
        for lineno, raw in enumerate(_lines(text), start=1):
            key_part, _, value_part = raw.partition("=")
            key = key_part.strip()
            fields = _LISTS[key][1] if key in _LISTS else ()
            for m, (_, kind) in zip(re.finditer(r"\S+", value_part), fields):
                if kind is _species and m.group() not in held:
                    col = len(key_part) + 2 + m.start()
                    message = f"{key} names species {m.group()!r}, which no compartment holds"
                    raise fail(message, lineno, col)

    # keys left out take MixingScenario's defaults
    scenario_id = options.pop("id", default_id)
    scenario = MixingScenario(**lists, **options)
    return ScenarioFile(id=scenario_id, scenario=scenario)


def _convert(kind, token, what, fail, lineno, col):
    """``token`` converted by ``kind`` (a converter from a key table), or the
    ScenarioParseError for it: every token and value error is written here."""
    try:
        if kind is int or kind is float:
            _ascii(token)
        return kind(token)
    except ValueError:
        pass
    if kind is _species:
        message = f"invalid species token {token!r}"
    elif kind is int:
        message = f"{what} must be an integer, got {token!r}"
    elif kind is float:
        message = f"{what} must be a number, got {token!r}"
    else:  # an enum class
        allowed = ", ".join(member.value for member in kind)
        message = f"{what} must be one of: {allowed}; got {token!r}"
    raise fail(message, lineno, col)


def load_scenario(path: str | os.PathLike[str]) -> ScenarioFile:
    """Read and parse a scenario file; the default id is the file stem.

    Messages name the file as given: ``./x.scenario`` stays as written.
    One leading byte-order mark is dropped after decoding, so that byte
    offsets in a decode error still count from the start of the file.
    """
    path = os.fspath(path)
    if not isinstance(path, str):  # open() would read a bytes path
        raise TypeError(f"path must be a str or PathLike of str, not {type(path).__name__}")
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"not valid UTF-8: {exc.reason} at byte {exc.start}", source=path
        ) from None
    except ValueError:  # open() refuses a path that holds a NUL character
        raise ScenarioParseError("embedded null byte", source=repr(path)) from None
    text = text.removeprefix("\ufeff")
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, source=path, default_id=stem)


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
    for key, row in _LISTS.items():
        objects = getattr(s, row[4])
        named[key] = _labels(row, objects)
        lines += row[5](key, objects)
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
