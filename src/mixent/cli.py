"""Command-line interface.

Subcommands: count, entropy, mix, sweep-overlap, oracle-check.  Numeric
output is printed to 12 significant digits and is byte-identical across
runs for identical inputs.

Exit codes: 0 on success, 1 when a domain guard rejects the inputs
(negative counts, non-isothermal scenarios, enumeration size caps,
numbers beyond floating-point range), 2 for usage errors and scenario
files that cannot be read or parsed.  Each error is one line on stderr.
main() returns the code for every command line; only --help exits.

The grammar is declared once, in _COMMANDS: every rule but one,
--constant with --levels, which the entropy handler checks first, so a
usage error is decided before MIXENT_KB or a scenario file is read.  A
command line in canonical form (each flag spelled in full, given once
and followed by its value as the next argument, no value starting with
'-') is read straight from that table without importing argparse; every
other command line, --help and each usage error among them, goes to the
argparse parser built from the same table, which decides it.

Entropy and work outputs are in units of k_B (nats) by default.  Set the
environment variable MIXENT_KB=si to multiply by the SI Boltzmann
constant, reading temperatures as kelvin: entropies become J/K, work
becomes J.  MIXENT_KB=reduced (or unset) keeps reduced units.  Only
entropy, mix and sweep-overlap print units, so only they read it.
"""

import functools
import gc
import os
import sys
from types import SimpleNamespace

from ._forms import CountingModel, StirlingForm
from .errors import DomainError, ScenarioParseError

# combinatorics, statmech, the scenario core (_scenario), oracle and json
# are imported by the handlers that use them, and argparse by
# _build_parser(), so each call loads only what its subcommand runs; the
# grammar's choices come from _forms

KB_SI = 1.380649e-23  # J/K


class _UsageError(Exception):
    """An argument argparse rejected; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _digits(value: int) -> str:
    """Decimal text of an exact count of any size.

    str() stops at the interpreter's 4,300-digit limit, a process-wide
    setting this leaves alone.  The binary halves are joined in decimal
    arithmetic instead (the divide-and-conquer conversion of later Pythons),
    so the time grows like a decimal product, not quadratically.
    """
    if value.bit_length() <= 4096:  # at most 1,234 digits
        return str(value)
    import decimal

    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
    )

    def join(n: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:
            return decimal.Decimal(n)
        half = bits // 2
        hi, lo = join(n >> half, bits - half), join(n & ((1 << half) - 1), half)
        return ctx.fma(hi, ctx.power(2, half), lo)

    return str(join(value, value.bit_length()))


def _resolve_units() -> tuple[float, str]:
    mode = os.environ.get("MIXENT_KB", "reduced").strip().lower() or "reduced"
    if mode == "reduced":
        return 1.0, "kB"
    if mode == "si":
        return KB_SI, "J/K"
    raise DomainError(f"MIXENT_KB must be 'reduced' or 'si', got {mode!r}")


_CSV_SPECIAL = frozenset(',"\r\n')


def _csv_cell(value: object) -> str:
    """``value`` as one CSV cell, quoted (RFC 4180) only when it has to be."""
    text = str(value)
    if _CSV_SPECIAL.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _emit(rows: list[dict[str, object]], fmt: str) -> None:
    """Rows of column name -> value; floats print to 12 significant digits.

    JSON numbers are emitted as such literals too, so the JSON text
    itself is deterministic, not just the parsed values.
    """
    if fmt == "csv":
        quote = _csv_cell
    else:
        import json

        quote = json.dumps
    cells = [
        [_fmt(v) if isinstance(v, float) else quote(v) for v in row.values()]
        for row in rows
    ]
    if fmt == "csv":
        lines = [",".join(rows[0])] + [",".join(c) for c in cells]
        text = "\n".join(lines) + "\n"
    else:
        items = [
            "  {" + ", ".join(f'"{k}": {v}' for k, v in zip(row, c)) + "}"
            for row, c in zip(rows, cells)
        ]
        text = "[\n" + ",\n".join(items) + "\n]\n"
    sys.stdout.write(text)


# argparse types.  argparse reports any ValueError from them as a usage
# error, so they judge shape only: a DomainError (a ValueError) raised
# here would turn an exit 1 into an exit 2.


def _type_error(message: str) -> Exception:
    """argparse's ArgumentTypeError, whose message argparse prints as is;
    argparse is imported only for a value it rejects."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_at_least(low: int):
    """An integer >= low; a non-integer reads as it does for type=int."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _type_error(f"invalid int value: {text!r}") from None
        if value < low:
            raise _type_error(f"must be >= {low}, got {value}")
        return value

    return convert


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _type_error(f"must be comma-separated integers, got {text!r}") from None


def _levels(text: str) -> tuple[tuple[float, int], ...]:
    """(energy, degeneracy) pairs; LevelSpec judges their values."""
    levels = []
    for item in text.split(","):
        energy, sep, degeneracy = item.partition(":")
        try:
            levels.append((float(energy), int(degeneracy) if sep else 1))
        except ValueError:
            raise _type_error(
                f"items must look like '<energy>:<degeneracy>', got {item!r}"
            ) from None
    return tuple(levels)


def _cmd_count(args) -> int:
    from . import combinatorics

    count = getattr(combinatorics, args.formula)(args.a, args.b)
    if isinstance(count, float):  # bose-approx: the log of a count
        count = combinatorics.Count.log_only(count)
    print(f"value = {'(log-only)' if count.is_log_only else _digits(count.value)}")
    print(f"log_value = {_fmt(count.log_value)}")
    return 0


def _cmd_entropy(args) -> int:
    if args.levels is not None and args.constant is not None:
        raise _UsageError(
            "mixent entropy: argument --constant: not allowed with argument --levels"
        )
    scale, units = _resolve_units()
    from .statmech import EnsembleSpec, entropy_from_levels, ideal_gas_entropy

    model = CountingModel(args.model)
    form = StirlingForm(args.stirling_form)
    if args.V is None:
        ensemble = EnsembleSpec(levels=args.levels, N=args.N, T=args.T)
        result = entropy_from_levels(ensemble, model, form)
    else:
        constant = 0.0 if args.constant is None else args.constant
        result = ideal_gas_entropy(args.N, args.V, args.T, model, form, constant)
    print(f"S = {_fmt(result.S * scale)}")
    print(f"per_particle = {_fmt(result.per_particle * scale)}")
    print(f"model = {result.model.value}")
    print(f"stirling_form = {result.stirling_form.value}")
    print(f"units = {units}")
    return 0


def _cmd_mix(args) -> int:
    """mix (no --points): one row for the file's own scenario;
    sweep-overlap: one row per q = i/(points-1), every species pair at q.
    Both run the scenario core on its plain records, without dataclasses."""
    scale, units = _resolve_units()
    from ._scenario import _reports, load

    scenario_id, scenario = load(args.scenario)
    points = args.points
    grid = (None,) if points is None else [i / (points - 1) for i in range(points)]
    rows = []
    for _, S_initial, S_final, delta_S, work, q in _reports(scenario, grid):
        rows.append({
            "scenario": scenario_id,
            "model": scenario.model.value,
            "stirling_form": scenario.stirling_form.value,
            "weighting": scenario.weighting.value,
            "overlap": q,
            "S_initial": S_initial * scale,
            "S_final": S_final * scale,
            "delta_S": delta_S * scale,
            "separation_work": work * scale,
            "units": units,
        })
    _emit(rows, args.format)
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracle import FIXED_CELL_SUITE, verify_counting

    cases = 0
    failures = 0
    for cells in FIXED_CELL_SUITE:
        degs = ",".join(str(g) for g in cells)
        for N in range(args.max_n + 1):
            report = verify_counting(N, cells)
            cases += 1
            if report.ok:
                print(f"ok N={N} cells=({degs}) {len(report.checks)} identities")
            else:
                failures += 1
                print(report.as_text())
    if failures:
        print(f"FAILED {failures} of {cases} cases")
        return 1
    print(f"all identities verified: {cases} cases")
    return 0


class _OneOf(tuple):
    """Arguments of which exactly one is required: a mutually exclusive
    group."""


# The grammar, each rule stated once, read by _build_parser() into argparse
# and by _read_canonical() without it.  An argument is (name, add_argument()
# keywords): an option's name is its flag and its keywords name its dest; a
# positional's name is its dest.  A parser is (set_defaults() values, its
# arguments in help order).

# count's kinds, read into args.kind; every kind is a combinatorics formula
# of two operands, a and b
_KINDS = {
    **{
        kind: (
            {"formula": formula},
            (("a", {"metavar": a, "type": int}), ("b", {"metavar": b, "type": int})),
        )
        for kind, formula, a, b in (
            ("binomial", "binomial", "N", "n"),
            ("bose", "multiplicity_bose_exact", "n", "g"),
            ("bose-approx", "multiplicity_bose_approx", "n", "g"),
            ("symbols", "classical_symbol_states", "n", "g"),
        )
    },
    "multiplicity": (
        {"formula": "multiplicity_distinguishable"},
        (
            ("--occ", {"dest": "a", "type": _int_list, "required": True,
                       "help": "comma-separated occupation numbers"}),
            ("--deg", {"dest": "b", "type": _int_list, "required": True,
                       "help": "comma-separated cell degeneracies"}),
        ),
    ),
}

_SCENARIO_ARGUMENTS = (
    ("--scenario", {"dest": "scenario", "required": True}),
    ("--format", {"dest": "format", "choices": ["csv", "json"], "default": "csv"}),
)

# subcommand, read into args.command -> (its help, set_defaults() values,
# its arguments, or for count its kinds)
_COMMANDS = {
    "count": ("evaluate a counting formula", {"handler": _cmd_count}, _KINDS),
    "entropy": (
        "entropy of a gas or level ensemble",
        {"handler": _cmd_entropy},
        (
            ("--N", {"dest": "N", "type": int, "required": True}),
            ("--T", {"dest": "T", "type": float, "required": True}),
            _OneOf((
                ("--V", {"dest": "V", "type": float, "help": "volume of an ideal gas"}),
                ("--levels", {"dest": "levels", "type": _levels,
                              "help": "comma-separated '<energy>:<degeneracy>' items"}),
            )),
            ("--model", {"dest": "model", "choices": [m.value for m in CountingModel],
                         "default": CountingModel.GIBBS_CORRECTED.value}),
            ("--stirling-form", {"dest": "stirling_form",
                                 "choices": [f.value for f in StirlingForm],
                                 "default": StirlingForm.TWO_TERM.value}),
            ("--constant", {"dest": "constant", "type": float, "help": "ideal gas only"}),
        ),
    ),
    "mix": (
        "entropy change of a scenario file",
        {"handler": _cmd_mix, "points": None},
        _SCENARIO_ARGUMENTS,
    ),
    "sweep-overlap": (
        "scenario entropy across an overlap grid",
        {"handler": _cmd_mix},
        (
            *_SCENARIO_ARGUMENTS,
            ("--points", {"dest": "points", "type": _int_at_least(2), "default": 101}),
        ),
    ),
    "oracle-check": (
        "verify counting formulas by exhaustive enumeration",
        {"handler": _cmd_oracle_check},
        (("--max-n", {"dest": "max_n", "type": _int_at_least(0), "default": 8}),),
    ),
}


def _read_canonical(argv):
    """The namespace argparse gives for argv, read from the grammar without
    argparse, or None when argv is not in canonical form.

    Canonical: ``<command> [<kind>] <positional>... (<flag> <value>)...``,
    every flag declared for its parser, spelled in full and given at most
    once, no value starting with '-', every required flag and exactly one
    of each _OneOf given, and every value converting and among its
    choices.  For None, _build_parser() decides, as for every command line
    before this reader: --help, usage errors, abbreviations, --flag=value,
    '--', repeated flags and negative values all go there.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *rest = argv
    _, defaults, arguments = _COMMANDS[command]
    values = {"command": command, **defaults}
    if arguments is _KINDS:
        if not rest or rest[0] not in _KINDS:
            return None
        kind, *rest = rest
        defaults, arguments = _KINDS[kind]
        values.update(kind=kind, **defaults)
    positionals = [
        entry[0] for entry in arguments
        if not isinstance(entry, _OneOf) and not entry[0].startswith("-")
    ]
    texts = dict(zip(positionals, rest))
    tail = rest[len(positionals):]
    if len(texts) < len(positionals) or len(tail) % 2:
        return None
    for flag, text in zip(tail[::2], tail[1::2]):
        if not flag.startswith("--") or flag in texts:
            return None
        texts[flag] = text
    for entry in arguments:
        group = entry if isinstance(entry, _OneOf) else (entry,)
        if isinstance(entry, _OneOf) and sum(name in texts for name, _ in entry) != 1:
            return None
        for name, keywords in group:
            dest = keywords.get("dest", name)  # a positional's name is its dest
            text = texts.pop(name, None)
            if text is None:
                if keywords.get("required"):
                    return None
                values[dest] = keywords.get("default")
                continue
            if text.startswith("-"):
                return None
            convert = keywords.get("type")
            try:
                value = text if convert is None else convert(text)
            except Exception:  # argparse runs the converter again and judges
                return None
            if value not in keywords.get("choices", (value,)):
                return None
            values[dest] = value
    if texts:  # a flag this parser does not declare
        return None
    return SimpleNamespace(**values)


@functools.cache  # one tree per process: parsing leaves the parser as it was
def _build_parser():
    """The argparse parser of the grammar in _COMMANDS."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        """argparse whose errors reach main(), to print as one stderr line,
        and that reads an argument starting like a negative number (-1e-05,
        -inf, -nan, -1:2) as a value, as after '='; no mixent option starts
        so."""

        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            # private argparse API, pinned by tests; its own takes only -1 and -1.5
            self._negative_number_matcher = re.compile(r"-\.?\d|-(?i:inf|nan)")

        def error(self, message: str):
            raise _UsageError(f"{self.prog}: {message}")

    def add(parser, defaults, arguments) -> None:
        parser.set_defaults(**defaults)
        for entry in arguments:
            if isinstance(entry, _OneOf):
                group = parser.add_mutually_exclusive_group(required=True)
                for name, keywords in entry:
                    group.add_argument(name, **keywords)
            else:
                parser.add_argument(entry[0], **entry[1])

    parser = _Parser(
        prog="mixent",
        description="Microstate counting and mixing entropy for ideal-gas scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        if arguments is not _KINDS:
            add(command_parser, defaults, arguments)
            continue
        add(command_parser, defaults, ())
        kinds = command_parser.add_subparsers(dest="kind", required=True)
        for kind, (kind_defaults, kind_arguments) in _KINDS.items():
            add(kinds.add_parser(kind), kind_defaults, kind_arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_canonical(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioParseError, OSError) as exc:  # OSError: an unreadable scenario
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _entry() -> int:
    """main() for a process that exits with its code: `python -m mixent.cli`
    and the installed `mixent` script.

    Freezing the GC after the call lets the interpreter's finalization skip
    the full collections over every object the process holds, work that
    only delays its exit.  atexit handlers, the stdio flush and the exit
    status are unchanged.  main() itself leaves the GC alone, because
    library callers and tests run it in-process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(_entry())
