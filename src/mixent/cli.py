"""Command-line interface.

Subcommands: count, entropy, mix, sweep-overlap, oracle-check.  Numeric
output is printed to 12 significant digits and is byte-identical across
runs for identical inputs.

Exit codes: 0 on success, 1 when a domain guard rejects the inputs
(negative counts, non-isothermal scenarios, enumeration size caps,
numbers beyond floating-point range), 2 for usage errors and scenario
files that cannot be read or parsed.  Each error is one line on stderr.
main() returns the code for every command line; only --help exits.  argparse
declares every argument rule but one, --constant with --levels, which the
entropy handler checks first, so a usage error is decided before
MIXENT_KB or a scenario file is read.

Entropy and work outputs are in units of k_B (nats) by default.  Set the
environment variable MIXENT_KB=si to multiply by the SI Boltzmann
constant, reading temperatures as kelvin: entropies become J/K, work
becomes J.  MIXENT_KB=reduced (or unset) keeps reduced units.  Only
entropy, mix and sweep-overlap print units, so only they read it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import sys

from ._forms import CountingModel, StirlingForm
from .errors import DomainError, ScenarioParseError

# combinatorics, statmech, the scenario core (_scenario), oracle and json
# are imported by the handlers that use them, so each call loads only what
# its subcommand runs; the parser's choices come from _forms

KB_SI = 1.380649e-23  # J/K


class _UsageError(Exception):
    """An argument argparse rejected; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse whose errors reach main(), to print as one stderr line, and
    that reads an argument starting like a negative number (-1e-05, -inf,
    -nan, -1:2) as a value, as after '='; no mixent option starts so."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # private argparse API, pinned by tests; its own takes only -1 and -1.5
        self._negative_number_matcher = re.compile(r"-\.?\d|-(?i:inf|nan)")

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


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


def _int_at_least(low: int):
    """An integer >= low; a non-integer reads as it does for type=int."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return convert


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}"
        ) from None


def _levels(text: str) -> tuple[tuple[float, int], ...]:
    """(energy, degeneracy) pairs; LevelSpec judges their values."""
    levels = []
    for item in text.split(","):
        energy, sep, degeneracy = item.partition(":")
        try:
            levels.append((float(energy), int(degeneracy) if sep else 1))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"items must look like '<energy>:<degeneracy>', got {item!r}"
            ) from None
    return tuple(levels)


def _cmd_count(args: argparse.Namespace) -> int:
    from . import combinatorics

    count = getattr(combinatorics, args.formula)(args.a, args.b)
    if isinstance(count, float):  # bose-approx: the log of a count
        count = combinatorics.Count.log_only(count)
    print(f"value = {'(log-only)' if count.is_log_only else _digits(count.value)}")
    print(f"log_value = {_fmt(count.log_value)}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
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


def _cmd_mix(args: argparse.Namespace) -> int:
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


def _cmd_oracle_check(args: argparse.Namespace) -> int:
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


@functools.cache  # one tree per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixent",
        description="Microstate counting and mixing entropy for ideal-gas scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="evaluate a counting formula")
    count.set_defaults(handler=_cmd_count)
    kinds = count.add_subparsers(dest="kind", required=True)
    # every kind is a combinatorics formula of two operands, a and b
    for kind, formula, a, b in (
        ("binomial", "binomial", "N", "n"),
        ("bose", "multiplicity_bose_exact", "n", "g"),
        ("bose-approx", "multiplicity_bose_approx", "n", "g"),
        ("symbols", "classical_symbol_states", "n", "g"),
    ):
        pair = kinds.add_parser(kind)
        pair.add_argument("a", metavar=a, type=int)
        pair.add_argument("b", metavar=b, type=int)
        pair.set_defaults(formula=formula)
    multiplicity = kinds.add_parser("multiplicity")
    multiplicity.add_argument(
        "--occ", dest="a", type=_int_list, required=True,
        help="comma-separated occupation numbers",
    )
    multiplicity.add_argument(
        "--deg", dest="b", type=_int_list, required=True,
        help="comma-separated cell degeneracies",
    )
    multiplicity.set_defaults(formula="multiplicity_distinguishable")

    entropy = sub.add_parser("entropy", help="entropy of a gas or level ensemble")
    entropy.add_argument("--N", type=int, required=True)
    entropy.add_argument("--T", type=float, required=True)
    gas = entropy.add_mutually_exclusive_group(required=True)
    gas.add_argument("--V", type=float, help="volume of an ideal gas")
    gas.add_argument(
        "--levels", type=_levels, help="comma-separated '<energy>:<degeneracy>' items"
    )
    entropy.add_argument(
        "--model",
        choices=[m.value for m in CountingModel],
        default=CountingModel.GIBBS_CORRECTED.value,
    )
    entropy.add_argument(
        "--stirling-form",
        dest="stirling_form",
        choices=[f.value for f in StirlingForm],
        default=StirlingForm.TWO_TERM.value,
    )
    entropy.add_argument("--constant", type=float, help="ideal gas only")
    entropy.set_defaults(handler=_cmd_entropy)

    mix = sub.add_parser("mix", help="entropy change of a scenario file")
    sweep = sub.add_parser(
        "sweep-overlap", help="scenario entropy across an overlap grid"
    )
    for scenario_cmd in (mix, sweep):
        scenario_cmd.add_argument("--scenario", required=True)
        scenario_cmd.add_argument("--format", choices=["csv", "json"], default="csv")
        scenario_cmd.set_defaults(handler=_cmd_mix)
    mix.set_defaults(points=None)
    sweep.add_argument("--points", type=_int_at_least(2), default=101)

    oracle = sub.add_parser(
        "oracle-check", help="verify counting formulas by exhaustive enumeration"
    )
    oracle.add_argument("--max-n", dest="max_n", type=_int_at_least(0), default=8)
    oracle.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
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
