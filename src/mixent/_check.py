"""Argument validation shared by every public constructor and function,
and the one overflow-tolerant float sum.

One flat function per kind of value.  Each rejects ``bool`` (an ``int``
subclass that is never meant as a count or a quantity here) and reports
a number beyond the float range as a DomainError, so no public call lets
``OverflowError`` escape.  The exact ``int``/``float`` case is tested
first and returns without a further call.  The value-object constructors
(``LevelSpec``, ``GasCompartment``, ``SpeciesOverlap``), which run ten
thousand times for a wide level list, accept an exact-type value in range
inline and call these only for any other value, so every conversion and
every message stays here; :func:`occupations` and :func:`degeneracies`
do the same for each cell of a counting call.  :func:`occupations` is the
whole occupation rule: one count >= 0 per cell, and at least one cell.
:func:`fsum` is every float sum in the package; each caller says what a
sum beyond the float range stands for.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import Iterable, TypeVar

from .errors import DomainError

_E = TypeVar("_E", bound=Enum)

_INF = float("inf")
# the least int that float() rounds up to 2**1024 and so rejects
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _beyond_float(name: str, value: object) -> DomainError:
    """The error for a value whose conversion to float overflows."""
    got = (
        f"a {value.bit_length()}-bit integer" if isinstance(value, int) else repr(value)
    )
    return DomainError(f"{name} must fit a float (at most about 1.8e308), got {got}")


def _index(name: str, value: object) -> int:
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def real(name: str, value: object) -> float:
    """A real number as a float; inf and NaN pass, as the caller decides."""
    # float() would parse text, so strings are imposters here as bool is
    if isinstance(value, (bool, str, bytes, bytearray)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _beyond_float(name, value) from None
    except TypeError:
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def integer(name: str, value: object, minimum: int = 0) -> int:
    """An integer >= minimum, of any size."""
    n = value if type(value) is int else _index(name, value)
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return n


def count(name: str, value: object, minimum: int = 1) -> int:
    """An integer >= minimum that also converts to float.

    Particle numbers enter the entropy formulas as floats, so one beyond
    about 1.8e308 has no entropy to report.
    """
    n = value if type(value) is int else _index(name, value)
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    if n >= _FLOAT_OVERFLOW:
        raise _beyond_float(name, n)
    return n


def finite(name: str, value: object) -> float:
    """A finite real, as a float."""
    x = value if type(value) is float else real(name, value)
    if not -_INF < x < _INF:  # NaN fails the comparison too
        raise DomainError(f"{name} must be finite, got {value!r}")
    return x


def positive(name: str, value: object) -> float:
    """A finite real > 0, as a float."""
    x = value if type(value) is float else real(name, value)
    if not 0.0 < x < _INF:  # NaN fails the comparison too
        raise DomainError(f"{name} must be finite and > 0, got {x!r}")
    return x


def overlap(value: object) -> float:
    """A state overlap |<a|b>|^2 in [0, 1], as a float."""
    q = value if type(value) is float else real("overlap", value)
    if not 0.0 <= q <= 1.0:  # NaN fails the comparison too
        raise DomainError(f"overlap must lie in [0, 1], got {value!r}")
    return q


def label(name: str, value: object) -> str:
    """A non-empty string, such as a species label."""
    if not isinstance(value, str) or not value:
        raise DomainError(f"{name} must be a non-empty string, got {value!r}")
    return value


def items(name: str, value: object) -> tuple:
    """The items of a container field (levels, compartments, overlaps)."""
    if type(value) is tuple:
        return value
    try:
        it = iter(value)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {value!r}") from None
    return tuple(it)


def occupations(values: object) -> tuple[int, ...]:
    """Occupation numbers: one :func:`count` >= 0 per item of values, and
    at least one item."""
    ns = items("occupation numbers", values)
    if not ns:
        raise DomainError("occupation vector needs at least one cell")
    for n in ns:
        if type(n) is not int or not 0 <= n < _FLOAT_OVERFLOW:
            return tuple([count("occupation number", n, 0) for n in ns])
    return ns


def degeneracies(values: object) -> tuple[int, ...]:
    """Cell degeneracies: one :func:`integer` >= 1 per item of values."""
    gs = items("degeneracies", values)
    for g in gs:
        if type(g) is not int or g < 1:
            return tuple([integer("degeneracy", g, 1) for g in gs])
    return gs


def fsum(xs: Iterable[float], beyond: float) -> float:
    """math.fsum (the same bits in any order), or ``beyond`` where it raises:
    OverflowError where finite terms overflow, ValueError on inf - inf."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return beyond


def member(enum_cls: type[_E], value: object) -> _E:
    """A member of enum_cls; the error names the class in words."""
    if isinstance(value, enum_cls):
        return value
    words = "".join(" " + c.lower() if c.isupper() else c for c in enum_cls.__name__)
    raise DomainError(f"unknown {words.strip()}: {value!r}")
