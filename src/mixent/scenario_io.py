"""Line-based scenario files: parsing and canonical serialization.

A scenario file is UTF-8 text (a leading byte-order mark is dropped), one
``key = value`` pair per line.  Blank lines and lines starting with ``#``
are ignored.  Keys:

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

Malformed text (unknown keys, bad numbers, wrong token counts) raises
ScenarioParseError with file/line/column.  Values that lex fine but break
physics (negative volume, mismatched temperatures) raise DomainError from
the scenario constructors instead; the CLI maps the two cases to
different exit codes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .combinatorics import StirlingForm
from .errors import DomainError, ScenarioParseError
from .mixing import GasCompartment, MixingScenario, SpeciesOverlap, Weighting
from .statmech import CountingModel

__all__ = ["ScenarioFile", "parse_scenario", "load_scenario", "serialize_scenario"]

_SCALAR_KEYS = ("id", "model", "stirling_form", "weighting", "final_volume")
_LIST_KEYS = ("compartment", "overlap")
_CHOICE_KEYS = (
    ("model", CountingModel),
    ("stirling_form", StirlingForm),
    ("weighting", Weighting),
)
_SPECIES_RE = re.compile(r"[A-Za-z0-9_.+\-]+\Z")
# what each token of a list value is, for error messages
_COMPARTMENT_FIELDS = ("species", "N", "V", "T")
_OVERLAP_FIELDS = ("species", "species", "overlap")


@dataclass(frozen=True)
class ScenarioFile:
    """A parsed scenario plus the label it is reported under."""

    id: str
    scenario: MixingScenario


def _key_col(key_part: str) -> int:
    """1-based column of the key on a ``key = value`` line."""
    return (len(key_part) - len(key_part.lstrip())) + 1


def _value_col(key_part: str, value_part: str) -> int:
    """1-based column of the value on a ``key = value`` line."""
    return len(key_part) + 1 + (len(value_part) - len(value_part.lstrip())) + 1


def _tokens(value_part: str, value_offset: int) -> list[tuple[str, int]]:
    """Whitespace-split tokens of a value with their 1-based columns."""
    return [
        (m.group(), value_offset + m.start() + 1)
        for m in re.finditer(r"\S+", value_part)
    ]


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

    scalars: dict[str, tuple[str, int, int]] = {}  # key -> (value, line, col)
    compartments: list[GasCompartment] = []
    overlaps: list[SpeciesOverlap] = []
    species: set[str] = set()  # tokens that matched _SPECIES_RE in this parse

    # Well-formed compartment and overlap lines take the first two branches;
    # everything else (blank lines, comments, scalars, errors) the last.
    # Columns are worked out only where they are reported: in errors and
    # for scalar values, which are converted after the loop.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key_part, eq, value_part = raw.partition("=")
        key = key_part.strip()
        toks = value_part.split()
        if key == "compartment" and len(toks) == 4:
            name, n, v, t = toks
            try:
                if name not in species and not _is_species(name, species):
                    raise ValueError(name)
                n, v, t = int(n), float(v), float(t)
            except ValueError:
                _raise_token_error(
                    key_part, value_part, _COMPARTMENT_FIELDS, fail, lineno
                )
            compartments.append(GasCompartment(name, n, v, t))
        elif key == "overlap" and len(toks) == 3:
            a, b, q = toks
            try:
                if (a not in species and not _is_species(a, species)) or (
                    b not in species and not _is_species(b, species)
                ):
                    raise ValueError(a, b)
                q = float(q)
            except ValueError:
                _raise_token_error(
                    key_part, value_part, _OVERLAP_FIELDS, fail, lineno
                )
            overlaps.append(SpeciesOverlap(a, b, q))
        else:
            stripped = raw.strip()
            if not stripped or stripped[0] == "#":
                continue
            if not eq:
                raise fail("expected 'key = value'", lineno, 1)
            if key not in _SCALAR_KEYS and key not in _LIST_KEYS:
                raise fail(f"unknown key {key!r}", lineno, _key_col(key_part))
            value_col = _value_col(key_part, value_part)
            if not toks:
                raise fail(f"empty value for key {key!r}", lineno, value_col)
            if key == "compartment":
                raise fail(
                    f"compartment needs '<species> <N> <V> <T>', got {len(toks)} tokens",
                    lineno,
                    value_col,
                )
            if key == "overlap":
                raise fail(
                    f"overlap needs '<species_a> <species_b> <q>', got {len(toks)} tokens",
                    lineno,
                    value_col,
                )
            if key in scalars:
                raise fail(f"duplicate key {key!r}", lineno, _key_col(key_part))
            scalars[key] = (value_part.strip(), lineno, value_col)

    if not compartments:
        raise ScenarioParseError(
            "scenario declares no compartments", source=source
        )

    # keys left out take MixingScenario's defaults
    options = {
        key: _parse_choice(scalars, key, enum_cls, source)
        for key, enum_cls in _CHOICE_KEYS
        if key in scalars
    }
    if "final_volume" in scalars:
        value, lineno, col = scalars["final_volume"]
        options["final_volume"] = _parse_float(value, fail, lineno, col, "final_volume")
    scenario = MixingScenario(
        compartments=tuple(compartments), overlaps=tuple(overlaps), **options
    )

    scenario_id = scalars["id"][0] if "id" in scalars else default_id
    return ScenarioFile(id=scenario_id, scenario=scenario)


def _is_species(token: str, species: set[str]) -> bool:
    """Whether token is a valid species label; a valid one joins ``species``."""
    if _SPECIES_RE.match(token) is None:
        return False
    species.add(token)
    return True


def _raise_token_error(key_part, value_part, fields, fail, lineno) -> NoReturn:
    """Raise the error for the first bad token of a list value, with its column.

    The parse splits values without tracking columns; only when a token
    fails to convert is its line scanned again for them.  ``fields`` names
    what each token is: "species", "N", or a number's label.
    """
    value_offset = len(key_part) + 1  # 0-based start of value_part
    for (token, col), field in zip(_tokens(value_part, value_offset), fields):
        if field == "species":
            if _SPECIES_RE.match(token) is None:
                raise fail(f"invalid species token {token!r}", lineno, col) from None
        elif field == "N":
            _parse_int(token, fail, lineno, col, field)
        else:
            _parse_float(token, fail, lineno, col, field)
    raise AssertionError("no bad token in a value that failed to convert")


def _parse_int(token, fail, lineno, col, what):
    try:
        return int(token)
    except ValueError:
        raise fail(f"{what} must be an integer, got {token!r}", lineno, col) from None


def _parse_float(token, fail, lineno, col, what):
    try:
        return float(token)
    except ValueError:
        raise fail(f"{what} must be a number, got {token!r}", lineno, col) from None


def _parse_choice(scalars, key, enum_cls, source):
    value, lineno, col = scalars[key]
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_cls)
        raise ScenarioParseError(
            f"{key} must be one of: {allowed}; got {value!r}",
            source=source,
            line=lineno,
            column=col,
        ) from None


def load_scenario(path: str | Path) -> ScenarioFile:
    """Read and parse a scenario file; the default id is the file stem.

    One leading byte-order mark is dropped after decoding, so that byte
    offsets in a decode error still count from the start of the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"not valid UTF-8: {exc.reason} at byte {exc.start}", source=str(path)
        ) from None
    text = text.removeprefix("\ufeff")
    return parse_scenario(text, source=str(path), default_id=path.stem)


def serialize_scenario(scenario_file: ScenarioFile) -> str:
    """Canonical text for a scenario; parse(serialize(x)) == x.

    Floats are written with repr, which round-trips exactly, and overlaps
    in their stored order.  A scenario the text cannot carry is a
    DomainError: an id that is not one non-empty line without leading or
    trailing whitespace, or a species label the parser would reject.
    """
    scenario_id = scenario_file.id
    if (
        not isinstance(scenario_id, str)
        or scenario_id.splitlines() != [scenario_id]  # empty, or a line break
        or scenario_id != scenario_id.strip()
    ):
        raise DomainError(
            f"id {scenario_id!r} cannot be serialized: it must be one non-empty "
            "line without leading or trailing whitespace"
        )
    s = scenario_file.scenario
    labels = {c.species for c in s.compartments}
    labels.update([name for o in s.overlaps for name in (o.species_a, o.species_b)])
    for label in sorted(labels):  # each label once, in a fixed order
        if _SPECIES_RE.match(label) is None:
            raise DomainError(
                f"species {label!r} cannot be serialized: a label is letters, "
                "digits and _ . + - only"
            )
    lines = [
        f"id = {scenario_id}",
        f"model = {s.model.value}",
        f"stirling_form = {s.stirling_form.value}",
        f"weighting = {s.weighting.value}",
        f"final_volume = {s.final_volume!r}",
    ]
    for c in s.compartments:
        lines.append(f"compartment = {c.species} {c.N} {c.V!r} {c.T!r}")
    for o in s.overlaps:
        lines.append(f"overlap = {o.species_a} {o.species_b} {o.overlap!r}")
    return "\n".join(lines) + "\n"
