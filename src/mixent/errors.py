"""Exception types shared across the package."""

from __future__ import annotations

from . import _EXPORTS

__all__ = [*_EXPORTS["errors"]]


class DomainError(ValueError):
    """An input lies outside the physical or mathematical domain of an operation.

    Raised for things like negative counts, non-positive volumes or
    temperatures, mismatched vector lengths, scenario constraints that do
    not hold, and numbers beyond the float range (an int too large to
    convert, or an ln n! or entropy that overflows), which never surface
    as a bare OverflowError.  Subclasses ValueError so callers that only
    care about "bad input" can catch the builtin.
    """


class OracleSizeError(DomainError):
    """An exhaustive enumeration request exceeds the hard-coded size guard."""


class ScenarioParseError(ValueError):
    """A scenario file failed to parse.

    Carries enough position information to point an editor at the offending
    token: ``source`` (path or "<string>"), 1-based ``line`` and ``column``.
    Document-level problems (e.g. a missing required key) have no single
    token to blame and use ``line=None``.
    """

    def __init__(
        self,
        message: str,
        *,
        source: str = "<string>",
        line: int | None = None,
        column: int | None = None,
    ) -> None:
        self.source = source
        self.line = line
        self.column = column
        if line is None:
            location = source
        elif column is None:
            location = f"{source}:{line}"
        else:
            location = f"{source}:{line}:{column}"
        super().__init__(f"{location}: {message}")
