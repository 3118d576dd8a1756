"""Command-line interface.

Subcommands: count, entropy, mix, sweep-overlap, oracle-check.  Numeric
output is printed to 12 significant digits and is byte-identical across
runs for identical inputs.

Exit codes: 0 on success, 1 when a domain guard rejects the inputs
(negative counts, non-isothermal scenarios, enumeration size caps,
numbers beyond floating-point range), 2 for usage errors and scenario
files that cannot be read or parsed.  Each error is one line on stderr.

Entropy and work outputs are in units of k_B (nats) by default.  Set the
environment variable MIXENT_KB=si to multiply by the SI Boltzmann
constant, reading temperatures as kelvin: entropies become J/K, work
becomes J.  MIXENT_KB=reduced (or unset) keeps reduced units.  Only
entropy, mix and sweep-overlap print units, so only they read it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .combinatorics import (
    Count,
    StirlingForm,
    binomial,
    classical_symbol_states,
    multiplicity_bose_approx,
    multiplicity_bose_exact,
    multiplicity_distinguishable,
)
from .errors import DomainError, ScenarioParseError
from .statmech import (
    CountingModel,
    EnsembleSpec,
    LevelSpec,
    entropy_from_levels,
    ideal_gas_entropy,
)

# mixing, scenario_io, oracle, json, dataclasses and itertools are imported
# by the handlers that use them, so count and entropy calls never load them
if TYPE_CHECKING:
    from .mixing import MixingScenario

KB_SI = 1.380649e-23  # J/K


class _UsageError(Exception):
    """Bad arguments detected after argparse; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse with its errors on one stderr line, like every other error."""

    def error(self, message: str):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


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


def _emit(rows: list[dict[str, object]], fmt: str) -> None:
    """Rows of column name -> value; floats print to 12 significant digits.

    JSON numbers are emitted as such literals too, so the JSON text
    itself is deterministic, not just the parsed values.
    """
    if fmt == "csv":
        quote = str
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


def _report_row(
    scenario_id: str,
    scenario: MixingScenario,
    report,
    scale: float,
    units: str,
) -> dict[str, object]:
    """One output row: the CSV/JSON columns, in order."""
    return {
        "scenario": scenario_id,
        "model": scenario.model.value,
        "stirling_form": scenario.stirling_form.value,
        "weighting": scenario.weighting.value,
        "overlap": report.overlap_applied,
        "S_initial": report.S_initial.S * scale,
        "S_final": report.S_final.S * scale,
        "delta_S": report.delta_S * scale,
        "separation_work": report.separation_work * scale,
        "units": units,
    }


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


def _parse_levels(text: str) -> tuple[LevelSpec, ...]:
    levels = []
    for item in text.split(","):
        energy_part, sep, deg_part = item.partition(":")
        try:
            energy = float(energy_part)
            degeneracy = int(deg_part) if sep else 1
        except ValueError:
            raise _UsageError(
                f"--levels items must look like '<energy>:<degeneracy>', got {item!r}"
            ) from None
        levels.append(LevelSpec(energy, degeneracy))
    return tuple(levels)


def _cmd_count(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "multiplicity":
        if args.operands:
            raise _UsageError("multiplicity takes --occ and --deg, not positionals")
        if args.occ is None or args.deg is None:
            raise _UsageError("multiplicity needs both --occ and --deg")
        occ = _parse_int_list(args.occ, "--occ")
        deg = _parse_int_list(args.deg, "--deg")
        count = multiplicity_distinguishable(occ, deg)
    else:
        if args.occ is not None or args.deg is not None:
            raise _UsageError(f"--occ/--deg only apply to 'multiplicity', not {kind!r}")
        if len(args.operands) != 2:
            raise _UsageError(f"{kind} takes exactly two integer operands")
        a, b = args.operands
        if kind == "binomial":
            count = binomial(a, b)
        elif kind == "bose":
            count = multiplicity_bose_exact(a, b)
        elif kind == "bose-approx":
            count = Count.log_only(multiplicity_bose_approx(a, b))
        else:  # symbols
            count = classical_symbol_states(a, b)
    print(f"value = {'(log-only)' if count.is_log_only else _digits(count.value)}")
    print(f"log_value = {_fmt(count.log_value)}")
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    scale, units = _resolve_units()
    model = CountingModel(args.model)
    form = StirlingForm(args.stirling_form)
    if args.levels is not None:
        if args.V is not None:
            raise _UsageError("--levels and --V are mutually exclusive")
        ensemble = EnsembleSpec(levels=_parse_levels(args.levels), N=args.N, T=args.T)
        result = entropy_from_levels(ensemble, model, form)
    else:
        if args.V is None:
            raise _UsageError("either --V (ideal gas) or --levels is required")
        result = ideal_gas_entropy(args.N, args.V, args.T, model, form, args.constant)
    print(f"S = {_fmt(result.S * scale)}")
    print(f"per_particle = {_fmt(result.per_particle * scale)}")
    print(f"model = {result.model.value}")
    print(f"stirling_form = {result.stirling_form.value}")
    print(f"units = {units}")
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    scale, units = _resolve_units()
    from .mixing import mixing_entropy
    from .scenario_io import load_scenario

    scenario_file = load_scenario(args.scenario)
    report = mixing_entropy(scenario_file.scenario)
    row = _report_row(scenario_file.id, scenario_file.scenario, report, scale, units)
    _emit([row], args.format)
    return 0


def _cmd_sweep_overlap(args: argparse.Namespace) -> int:
    scale, units = _resolve_units()
    if args.points < 2:
        raise _UsageError(f"--points must be >= 2, got {args.points}")
    import dataclasses
    import itertools

    from .mixing import SpeciesOverlap, mixing_entropy
    from .scenario_io import load_scenario

    scenario_file = load_scenario(args.scenario)
    base = scenario_file.scenario
    species = base.species()
    rows = []
    for i in range(args.points):
        q = i / (args.points - 1)
        overlaps = tuple(
            SpeciesOverlap(a, b, q)
            for a, b in itertools.combinations(species, 2)
        )
        scenario = dataclasses.replace(base, overlaps=overlaps)
        report = mixing_entropy(scenario)
        rows.append(_report_row(scenario_file.id, scenario, report, scale, units))
    _emit(rows, args.format)
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.max_n < 0:
        raise _UsageError(f"--max-n must be >= 0, got {args.max_n}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixent",
        description="Microstate counting and mixing entropy for ideal-gas scenarios.",
    )
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command")

    count = sub.add_parser("count", help="evaluate a counting formula")
    count.add_argument(
        "kind",
        choices=["binomial", "multiplicity", "bose", "bose-approx", "symbols"],
    )
    count.add_argument("operands", nargs="*", type=int)
    count.add_argument("--occ", help="comma-separated occupation numbers")
    count.add_argument("--deg", help="comma-separated cell degeneracies")
    count.set_defaults(handler=_cmd_count)

    entropy = sub.add_parser("entropy", help="entropy of a gas or level ensemble")
    entropy.add_argument("--N", type=int, required=True)
    entropy.add_argument("--T", type=float, required=True)
    entropy.add_argument("--V", type=float, default=None)
    entropy.add_argument(
        "--levels", default=None, help="comma-separated '<energy>:<degeneracy>' items"
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
    entropy.add_argument("--constant", type=float, default=0.0)
    entropy.set_defaults(handler=_cmd_entropy)

    mix = sub.add_parser("mix", help="entropy change of a scenario file")
    mix.add_argument("--scenario", required=True)
    mix.add_argument("--format", choices=["csv", "json"], default="csv")
    mix.set_defaults(handler=_cmd_mix)

    sweep = sub.add_parser(
        "sweep-overlap", help="scenario entropy across an overlap grid"
    )
    sweep.add_argument("--scenario", required=True)
    sweep.add_argument("--points", type=int, default=101)
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.set_defaults(handler=_cmd_sweep_overlap)

    oracle = sub.add_parser(
        "oracle-check", help="verify counting formulas by exhaustive enumeration"
    )
    oracle.add_argument("--max-n", dest="max_n", type=int, default=8)
    oracle.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
