"""The scenario core: every rule that ``mixent mix`` and ``sweep-overlap`` run.

A scenario is read, checked and evaluated here, on plain records, so the
CLI's scenario path loads no ``dataclasses``:

  * the scenario-text parser (``parse``, ``load``) and its key tables
    (``_SCALARS``, ``_LISTS``); the format is documented in ``scenario_io``;
  * the row rules of a compartment and an overlap (``Compartment``,
    ``Overlap``);
  * the scenario rules (``Scenario._validate`` and ``_summarize``);
  * the overlap rule and the inter-species term (``_species_term``);
  * the evaluation (``_reports``), which yields rows of plain numbers that
    have passed the result checks (``_row``).

The public frozen dataclasses ``GasCompartment``, ``SpeciesOverlap`` and
``MixingScenario`` (in ``mixing``) subclass these records and inherit
their constructors and checks; ``parse_scenario`` and ``load_scenario``
run this parser with them, and ``mixing_entropy`` makes its report from a
row.  So the library and the CLI reach the same checks, in the same
order, with the same messages.  ``Weighting`` and ``separation_work`` are
defined here; ``mixing``, their public home, names itself their module.

Reduced units: k_B = 1, entropies in nats, work in T-units of energy.
"""

import functools
import itertools
import math
import os
import re
from enum import Enum
from operator import attrgetter

from . import _check
from ._check import _FLOAT_OVERFLOW, _INF
from ._forms import (
    CountingModel,
    StirlingForm,
    _entropy,
    _ideal_gas_S,
    _log_multinomial,
)
from .errors import DomainError, ScenarioParseError

_REL_TOL = 1e-12


class Weighting(Enum):
    """How the overlap q scales the inter-species part of mixing entropy.

    COMPLEMENT multiplies by (1 - q^2): full mixing entropy at q = 0,
    none at q = 1, continuous in between.  It is a modelling choice, not
    the quantum (density-matrix) entropy: a 50/50 mixture of two pure
    states with |<a|b>|^2 = q has von Neumann entropy H((1 + sqrt q) / 2),
    which at q = 0.5 is 0.60 of ln 2 where 1 - q^2 gives 0.75 (Allahverdyan
    & Nieuwenhuizen, PRE 73, 066119, 2006).  LITERAL multiplies by q^2
    itself and is kept for contrast; it gets the endpoints backwards.
    """

    COMPLEMENT = "complement"
    LITERAL = "literal"

    def _scale(self, q: float) -> float:
        """The factor on the inter-species term at a checked overlap q."""
        return 1.0 - q * q if self is Weighting.COMPLEMENT else q * q


class _Record:
    """Checked values in slots, one per field (``_fields``, in token
    order), pickled as the list of their values, as a frozen slotted
    dataclass pickles: a subclass that adds no slots keeps its pickles."""

    __slots__ = ()
    _fields = ()  # not annotated: the public subclasses' type hints stay theirs

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)


class Compartment(_Record):
    """The checked values of one compartment: species, N, V and T."""

    __slots__ = _fields = ("species", "N", "V", "T")

    def __init__(self, species: str, N: int, V: float, T: float) -> None:
        # an exact str, int or float in range is stored as it is; anything
        # else goes through the _check call, which converts it or raises
        if type(species) is not str or not species:
            species = _check.label("species", species)
        _set_species(self, species)
        if type(N) is not int or not 1 <= N < _FLOAT_OVERFLOW:
            N = _check.count("N", N)
        _set_N(self, N)
        if type(V) is not float or not 0.0 < V < _INF:
            V = _check.positive("V", V)
        _set_V(self, V)
        if type(T) is not float or not 0.0 < T < _INF:
            T = _check.positive("T", T)
        _set_T(self, T)


class Overlap(_Record):
    """The checked values of one overlap |<a|b>|^2 between the internal
    states of two species, the pair sorted: species_a, species_b, overlap."""

    __slots__ = _fields = ("species_a", "species_b", "overlap")

    def __init__(self, species_a: str, species_b: str, overlap: float) -> None:
        # exact-type values in range skip the _check call, as in Compartment
        if type(species_a) is not str or not species_a:
            _check.label("species", species_a)
        if type(species_b) is not str or not species_b:
            _check.label("species", species_b)
        if species_a == species_b:
            raise DomainError(
                f"overlap of species {species_a!r} with itself is fixed at 1"
            )
        if species_b < species_a:
            species_a, species_b = species_b, species_a
        _set_species_a(self, species_a)
        _set_species_b(self, species_b)
        if type(overlap) is not float or not 0.0 <= overlap <= 1.0:
            overlap = _check.overlap(overlap)
        _set_overlap(self, overlap)


# each slot's own descriptor is the one way in, once per field; a subclass
# adds no slots of its own, so these reach its instances too
_set_species, _set_N, _set_V, _set_T = (
    Compartment.__dict__[name].__set__ for name in Compartment._fields
)
_set_species_a, _set_species_b, _set_overlap = (
    Overlap.__dict__[name].__set__ for name in Overlap._fields
)


class Scenario:
    """Initial compartments plus the single final volume they merge into.

    The class attributes are the defaults of the fields after
    compartments.  ``_rows`` maps each row field to the record class its
    items must be, and that the parser builds them with.  Every
    constructed, copied and unpickled scenario runs ``_validate``.
    """

    final_volume = None
    overlaps = ()
    model = CountingModel.GIBBS_CORRECTED
    stirling_form = StirlingForm.TWO_TERM
    weighting = Weighting.COMPLEMENT
    _rows = {"compartments": Compartment, "overlaps": Overlap}

    def __init__(
        self,
        compartments: tuple[Compartment, ...],
        final_volume: float | None = final_volume,
        overlaps: tuple[Overlap, ...] = overlaps,
        model: CountingModel = model,
        stirling_form: StirlingForm = stirling_form,
        weighting: Weighting = weighting,
    ) -> None:
        # through the dict here and in _validate: a frozen subclass
        # refuses setattr
        self.__dict__.update(
            compartments=compartments,
            final_volume=final_volume,
            overlaps=overlaps,
            model=model,
            stirling_form=stirling_form,
            weighting=weighting,
        )
        self._validate()

    def _validate(self) -> None:
        """The scenario rules.  Every compartment check is _summarize's; the
        final volume is the summed one; the overlaps make the one overlap
        table, (species_a, species_b) -> q, which is not a field, so a
        dataclass's eq, hash and repr skip it."""
        fields = self.__dict__
        rows = self._rows
        comps, (*_, v_sum, _), _ = _summarize(self.compartments, rows["compartments"])
        fields["compartments"] = comps
        v_fin = v_sum if self.final_volume is None else self.final_volume
        v_fin = _check.positive("final_volume", v_fin)
        if not math.isclose(v_fin, v_sum, rel_tol=_REL_TOL):
            raise DomainError(
                f"final_volume {v_fin!r} must equal the summed compartment "
                f"volumes {v_sum!r} (isothermal merge, no compression)"
            )
        fields["final_volume"] = v_fin
        overlaps = _check.items("overlaps", self.overlaps)
        fields["overlaps"] = overlaps
        record = rows["overlaps"]
        table: dict[tuple[str, str], float] = {}
        for o in overlaps:
            if not isinstance(o, record):
                raise DomainError(f"overlaps must be {record.__name__}, got {o!r}")
            pair = (o.species_a, o.species_b)
            if pair in table:
                raise DomainError(f"duplicate overlap entry for pair {list(pair)}")
            table[pair] = o.overlap
        fields["_overlap_table"] = table
        _check.member(CountingModel, self.model)
        _check.member(StirlingForm, self.stirling_form)
        _check.member(Weighting, self.weighting)

    def __setstate__(self, state: dict) -> None:
        # copies and unpickled scenarios pass the constructor's checks, and
        # pickles made before the table existed load with it
        self.__dict__.update(state)
        self._validate()


# The summaries of the last few compartments tuples, newest first, each
# (tuple, record class, summary): one tuple of entries, replaced in one
# assignment, so a thread reads whole entries.  An entry keeps its tuple
# alive, so no other object can take its id while the entry is here.
_KEEP = 4
_summaries: tuple = ()


def _summarize(compartments: object, record: type) -> tuple:
    """(the checked compartments tuple, its summary, record): the summary is
    what the tuple alone decides: the n (as floats) and V columns, the
    per-species totals, the total N, the summed volume, and a dict of
    density log-sums keyed by (distinguishable, final_volume) that
    _reports fills.

    Every compartment check of a scenario is here; each item must be a
    ``record``.  The summaries of the last _KEEP tuples are reused while
    the same tuple object comes back with the same record class, as it
    does for copies, replaced scenarios and scenarios evaluated in turn;
    any other value is checked and summarized anew.  Nothing remembered
    here comes from the Stirling forms, _species_term or _row, so a call
    that reuses a summary still goes through each of them.
    """
    global _summaries
    recent = _summaries
    for entry in recent:
        if entry[0] is compartments and entry[2] is record:
            return entry
    comps = _check.items("compartments", compartments)
    if not comps:
        raise DomainError("scenario needs at least one compartment")
    for c in comps:
        if not isinstance(c, record):
            raise DomainError(f"compartments must be {record.__name__}, got {c!r}")
    t0 = comps[0].T
    ns: list[float] = []
    Vs: list[float] = []
    per_species: dict[str, int] = {}
    n_sum = 0
    for c in comps:
        T = c.T
        if T != t0 and not math.isclose(T, t0, rel_tol=_REL_TOL):
            raise DomainError(
                f"scenario must be isothermal: temperatures {t0!r} and {T!r} differ"
            )
        n = c.N
        n_sum += n
        ns.append(float(n))
        Vs.append(c.V)
        per_species[c.species] = per_species.get(c.species, 0) + n
    _check.count("total particle number", n_sum)
    v_sum = _check.fsum(Vs, math.inf)
    if v_sum == math.inf:
        raise DomainError("the summed compartment volumes overflow a float")
    entry = (comps, (ns, Vs, per_species, n_sum, v_sum, {}), record)
    _summaries = (entry,) + recent[: _KEEP - 1]
    return entry


def _species_term(
    scenario: Scenario, per_species: dict[str, int], grid_q: float | None = None
) -> tuple[float, float]:
    """The weighted inter-species term over per-species totals N_s, and its q.

    The overlap rule: one species has q = 1; two, their pair overlap (0 if
    unlisted); more must all agree, since the weighting is global.  A
    grid_q sets every pair.  Only pairs of species in per_species are read.
    Distinguishable counting never notices species (+0.0); otherwise
    ln(N! / prod N_s!) under the form, scaled by the weighting (inf or NaN
    is left to the caller).
    """
    if grid_q is None:
        pairs = itertools.combinations(sorted(per_species), 2)  # none for one species
        values = set(map(scenario._overlap_table.get, pairs, itertools.repeat(0.0)))
    else:
        values = {grid_q} if len(per_species) > 1 else set()
    if len(values) > 1:
        raise DomainError(
            "pairwise overlaps must all agree when more than two species mix; "
            f"got {sorted(values)}"
        )
    q = values.pop() if values else 1.0
    if scenario.model is CountingModel.DISTINGUISHABLE:
        return 0.0, q
    delta = _log_multinomial(list(per_species.values()), scenario.stirling_form)
    return delta * scenario.weighting._scale(q), q


def separation_work(delta_S: float, T: float) -> float:
    """Minimum isothermal work T * delta_S to reverse an entropy change.

    Reduced units: with k_B = 1 the product of a temperature and an
    entropy in nats is already an energy.  A product beyond the float
    range is a DomainError.
    """
    T = _check.positive("T", T)
    delta_S = _check.finite("delta_S", delta_S)
    work = T * delta_S
    if not -_INF < work < _INF:
        raise DomainError(
            f"separation work overflows a float at T = {T:.6g}, delta_S = {delta_S:.6g}"
        )
    return work


def _row(
    N: int, S_initial: float, S_final: float, delta_S: float, T: float, q: float
) -> tuple:
    """The result checks every report passes, as a row of plain numbers:
    (N, S_initial, S_final, delta_S, separation work, q).  S_initial has
    passed _entropy already; S_final passes it here, then the separation
    work T * delta_S is formed."""
    return N, S_initial, _entropy(S_final, N), delta_S, separation_work(delta_S, T), q


def _density_log_sum(
    ns: list[float], Vs: list[float], N: int, distinguishable: bool, V_final: float
) -> float:
    """sum n_c ln(V_final / V_c) under distinguishable counting, else
    sum n_c ln(rho_c / rho); a density beyond the float range is a
    DomainError."""
    log = math.log
    if distinguishable:
        return _check.fsum([n * log(V_final / V) for n, V in zip(ns, Vs)], math.nan)
    rho = N / V_final
    rhos = [n / V for n, V in zip(ns, Vs)]
    if rho == _INF or _INF in rhos:
        raise DomainError(f"a density n / V overflows a float at N = {N:.6g}")
    return _check.fsum([n * log(r / rho) for n, r in zip(ns, rhos)], math.nan)


def _reports(scenario: Scenario, grid):
    """One checked row (``_row``) per grid_q in ``grid``, each what
    mixing_entropy reports for the scenario with every species pair at
    grid_q; None keeps the scenario's own overlaps.  S_initial, the
    density term and the per-species totals are formed once; see
    mixing.mixing_entropy for the formulas."""
    model = scenario.model
    form = scenario.stirling_form
    V_final = scenario.final_volume
    comps, summary, _ = _summarize(scenario.compartments, scenario._rows["compartments"])
    ns, Vs, per_species, N_total, _, log_sums = summary
    T = comps[0].T
    key = (model is CountingModel.DISTINGUISHABLE, V_final)
    log_sum = log_sums.get(key)
    if log_sum is None:
        log_sum = log_sums[key] = _density_log_sum(ns, Vs, N_total, *key)
    if model is CountingModel.DISTINGUISHABLE:
        gain = delta_density = log_sum
    else:
        r_N, *rs = form._remainders([float(N_total), *ns])
        excess = _check.fsum([*rs, -r_N], math.nan)
        gain = log_sum + excess
        # the clamp; NaN fails the comparison and is kept for the result checks
        delta_density = (0.0 if log_sum <= 0.0 else log_sum) + excess
    S_merged = _ideal_gas_S(float(N_total), V_final, T, model, form, 0.0)
    S_initial = _entropy(S_merged - gain, N_total)

    for grid_q in grid:
        delta_species, q = _species_term(scenario, per_species, grid_q)
        delta_S = delta_density + delta_species
        # S_final is inf or NaN if delta_S is: one check covers both
        yield _row(N_total, S_initial, S_initial + delta_S, delta_S, T, q)


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
# the scenario field its records fill, writer: (key, records) -> lines).
# A row's record class is the scenario class's _rows[field], whose
# _fields name the tokens in order.  Tokens converted by _species name species;
# outside compartment rows, each must name a species that some
# compartment holds.
_LISTS = {
    "compartment": (
        "<species> <N> <V> <T>",
        (("species", _species), ("N", int), ("V", float), ("T", float)),
        _compartment_args,
        "compartments",
        lambda key, cs: [f"{key} = {c.species} {c.N} {c.V!r} {c.T!r}" for c in cs],
    ),
    "overlap": (
        "<species_a> <species_b> <q>",
        (("species", _species), ("species", _species), ("overlap", float)),
        _overlap_args,
        "overlaps",
        lambda key, ovs: [f"{key} = {o.species_a} {o.species_b} {o.overlap!r}" for o in ovs],
    ),
}


@functools.cache  # a row's getters, built once, not on each call
def _species_getters(row: tuple) -> tuple[attrgetter, ...]:
    """Getters of the species that a record of a ``_LISTS`` row names: the
    fields of its record class filled from the tokens that the row
    converts with _species."""
    return tuple(
        attrgetter(name)
        for name, (_, kind) in zip(Scenario._rows[row[3]]._fields, row[1])
        if kind is _species
    )


def _labels(row: tuple, records) -> set[str]:
    """The species that ``records`` of a ``_LISTS`` row name."""
    labels: set[str] = set()
    for get in _species_getters(row):
        labels.update(map(get, records))
    return labels


def parse(text: str, source: str, default_id: str, scenario_cls: type = Scenario) -> tuple:
    """(id, scenario) from scenario text, the scenario a ``scenario_cls``
    built from the records of its ``_rows``.

    Raises ScenarioParseError for malformed text and DomainError for
    well-formed but unphysical values.
    """

    def fail(message: str, line: int, column: int | None = None) -> ScenarioParseError:
        return ScenarioParseError(message, source=source, line=line, column=column)

    options: dict[str, object] = {}  # scalar key -> converted value
    lists: dict[str, list] = {row[3]: [] for row in _LISTS.values()}  # field -> records
    records = scenario_cls._rows
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
            layout, fields, convert, field, _ = row
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
                lists[field].append(records[field](*args))
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

    # keys left out take the scenario's defaults
    scenario_id = options.pop("id", default_id)
    return scenario_id, scenario_cls(**lists, **options)


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


def load(path, scenario_cls: type = Scenario) -> tuple:
    """(id, scenario) from a scenario file, as ``parse`` reads its text; the
    default id is the file stem.

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
    return parse(text, path, stem, scenario_cls)

