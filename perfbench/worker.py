"""In-process workloads, run by run.py in a child process of their own.

    python worker.py --workload {library-mix,oracle-suite} --seed N --seconds S
                     --trace {0,1} --size {full,tiny} [--setup-only] [--spans PATH]

The worker imports mixent before anything else, generates its inputs,
warms up, prints ``READY`` and then runs a closed loop with one client.
Its last stdout line is a JSON object with the per-operation latencies,
the failures and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

import mixent  # noqa: E402  (first, so set-up time covers the package import)
from mixent import (  # noqa: E402
    CountingModel,
    EnsembleSpec,
    LevelSpec,
    SpeciesOverlap,
    StirlingForm,
    binomial,
    entropy_from_levels,
    mixing_entropy,
    multiplicity_bose_exact,
    multiplicity_distinguishable,
    multiplicity_gibbs_corrected,
    multiplicity_gibbs_corrected_exact,
    parse_scenario,
    serialize_scenario,
    verify_counting,
)
import mixent.oracle  # noqa: E402

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402

import inputs  # noqa: E402
import refs  # noqa: E402
from measure import (  # noqa: E402
    NoTrace,
    Tracer,
    Workload,
    median,
    overhead_frac,
    paired_loop,
    timed_loop,
)


class LibraryMix(Workload):
    """Parse/build/mix/sweep, level entropies and counts, a fifth of them wide."""

    block = sum(map(len, inputs.SMALL_SLOTS.values())) + len(inputs.KINDS)

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        self.seed = seed
        self.pool = inputs.library_pool(seed, sizes)
        self._blocks: dict[int, list[inputs.Request]] = {}

    def request(self, i: int) -> inputs.Request:
        b = i // self.block
        if b not in self._blocks:
            self._blocks = {b: inputs.library_block(self.pool, self.seed, b)}
        return self._blocks[b][i % self.block]

    def warm_up(self) -> None:
        for kind in inputs.KINDS:
            self.run(self.pool.small[kind][0][0], NoTrace())

    @staticmethod
    def run(req: inputs.Request, tr):
        spec = req.spec
        if req.kind == "mix":
            with tr.span("scenario_io.parse"):
                sf = parse_scenario(req.text)
            with tr.span("scenario_io.serialize"):
                text = serialize_scenario(sf)
            with tr.span("mixing.eval"):
                report = mixing_entropy(sf.scenario)
            sweep = []
            for q in inputs.SWEEP_POINTS:
                with tr.span("mixing.build"):
                    overlaps = tuple(
                        SpeciesOverlap(a, b, q)
                        for a, b in itertools.combinations(sf.scenario.species(), 2)
                    )
                    scenario = dataclasses.replace(sf.scenario, overlaps=overlaps)
                with tr.span("mixing.eval"):
                    sweep.append(mixing_entropy(scenario))
            return sf, text, report, sweep
        if req.kind == "levels":
            with tr.span("statmech.entropy"):
                ensemble = EnsembleSpec(
                    levels=tuple(LevelSpec(e, g) for e, g in spec.levels), N=spec.N, T=spec.T
                )
                return entropy_from_levels(
                    ensemble, CountingModel(spec.model), StirlingForm(spec.stirling_form)
                )
        with tr.span("combinatorics.count"):
            return {
                "binomial": binomial(spec.N, spec.k),
                "distinguishable": multiplicity_distinguishable(spec.occ, spec.degs),
                "gibbs": multiplicity_gibbs_corrected(spec.occ, spec.degs),
                "gibbs_exact": multiplicity_gibbs_corrected_exact(spec.occ, spec.degs),
                "bose": multiplicity_bose_exact(spec.bose_n, spec.bose_g),
            }

    @staticmethod
    def check(req: inputs.Request, out) -> str | None:
        spec = req.spec
        if req.kind == "levels":
            return refs.check_entropy(out, spec)
        if req.kind == "counts":
            return refs.check_counts(out, spec)
        sf, text, report, sweep = out
        problem = refs.check_parsed_scenario(sf, spec)
        if problem is None and parse_scenario(text) != sf:
            problem = f"{spec.id}: parse(serialize(x)) != x"
        if problem is None:
            problem = refs.check_mixing_report(report, spec, spec.q)
        for q, r in zip(inputs.SWEEP_POINTS, sweep):
            problem = problem or refs.check_mixing_report(r, spec, q)
        return problem

    def layer_metrics(self, tr: Tracer, n_ops: int) -> dict:
        small = {i for i in range(n_ops) if not self.request(i).wide}
        wide = set(range(n_ops)) - small

        def med(name, ops, unit_ns):
            return median(tr.durations(name, ops)) / unit_ns

        levels = sum(
            len(self.request(i).spec.levels)
            for i in range(n_ops)
            if self.request(i).kind == "levels"
        )
        return {
            "scenario_io.parse_us": med("scenario_io.parse", small, 1e3),
            "scenario_io.serialize_us": med("scenario_io.serialize", small, 1e3),
            "mixing.build_us.small": med("mixing.build", small, 1e3),
            "mixing.build_ms.wide": med("mixing.build", wide, 1e6),
            "mixing.eval_us.small": med("mixing.eval", small, 1e3),
            "mixing.eval_ms.wide": med("mixing.eval", wide, 1e6),
            "mixing.calls": len(tr.durations("mixing.eval")),
            "statmech.entropy_us.small": med("statmech.entropy", small, 1e3),
            "statmech.entropy_ms.wide": med("statmech.entropy", wide, 1e6),
            "statmech.levels_per_s": levels / (sum(tr.durations("statmech.entropy")) / 1e9),
            "combinatorics.count_us.small": med("combinatorics.count", small, 1e3),
            "combinatorics.count_ms.wide": med("combinatorics.count", wide, 1e6),
        }


class OracleSuite(Workload):
    """verify_counting over the oracle-check default case set, pass after pass."""

    def __init__(self, seed: int, sizes: inputs.Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.block = len(inputs.oracle_pass(seed, 0, sizes))
        self._passes: dict[int, list] = {}
        self.enum_totals: dict[int, int] = {}  # span index -> enumerated total

    def request(self, i: int):
        p = i // self.block
        if p not in self._passes:
            self._passes = {p: inputs.oracle_pass(self.seed, p, self.sizes)}
        return self._passes[p][i % self.block]

    def warm_up(self) -> None:
        verify_counting(2, (2, 1))

    @staticmethod
    def run(case, tr):
        N, cells = case
        with tr.span("oracle.verify_counting"):
            return verify_counting(N, cells)

    @staticmethod
    def check(case, report) -> str | None:
        return refs.check_oracle_report(report, *case)

    @contextlib.contextmanager
    def instrumented(self, tr):
        """Span the two enumerations verify_counting calls (by module lookup)."""
        if not isinstance(tr, Tracer):
            yield
            return
        originals = {}
        for name in ("enumerate_assignments", "enumerate_indistinct"):
            original = originals[name] = getattr(mixent.oracle, name)

            def wrapped(N, cells, _original=original, _span="oracle." + name):
                with tr.span(_span):
                    result = _original(N, cells)
                self.enum_totals[len(tr.spans) - 1] = result.total
                return result

            setattr(mixent.oracle, name, wrapped)
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(mixent.oracle, name, fn)

    def layer_metrics(self, tr: Tracer, n_ops: int) -> dict:
        own = tr.self_times()
        per_pass: dict[int, dict] = {}
        assignments = patterns = assign_ns = pattern_ns = 0
        for idx, (name, start, end, _, op) in enumerate(tr.spans):
            row = per_pass.setdefault(op // self.block, {"formula": 0, "enum": 0, "assign": 0})
            if name == "oracle.verify_counting":
                row["formula"] += own[idx]
            elif name == "oracle.enumerate_assignments":
                row["enum"] += end - start
                row["assign"] += self.enum_totals[idx]
                assignments += self.enum_totals[idx]
                assign_ns += end - start
            elif name == "oracle.enumerate_indistinct":
                row["enum"] += end - start
                patterns += self.enum_totals[idx]
                pattern_ns += end - start
        rows = list(per_pass.values())
        return {
            "combinatorics.formula_ms": median(r["formula"] for r in rows) / 1e6,
            "oracle.assignments": rows[0]["assign"],
            "oracle.assignments_per_s": assignments / (assign_ns / 1e9),
            "oracle.patterns_per_s": patterns / (pattern_ns / 1e9),
            "oracle.enum_busy_s": median(r["enum"] for r in rows) / 1e9,
            "oracle.cases": n_ops,
        }

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation over one pass, with tracemalloc on."""
        tracemalloc.start()
        try:
            for N, cells in inputs.oracle_pass(self.seed, 0, self.sizes):
                verify_counting(N, cells)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def run(args) -> dict:
    sizes = inputs.SIZES[args.size]
    wl = (LibraryMix if args.workload == "library-mix" else OracleSuite)(args.seed, sizes)
    wl.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return {}
    if not args.trace:
        result = timed_loop(wl, args.seconds, NoTrace())
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result

    tr = Tracer()
    plain, traced = paired_loop(wl, args.seconds, tr)
    metrics = wl.layer_metrics(tr, traced["attempted"])
    metrics["trace.overhead_frac"] = overhead_frac(plain, traced)
    if isinstance(wl, OracleSuite):
        metrics["oracle.cases_failed"] = traced["failed"]
        metrics["oracle.peak_alloc_mb"] = wl.peak_alloc_mb()
    if args.spans:
        tr.write(Path(args.spans))
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["library-mix", "oracle-suite"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if not Path(mixent.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported mixent from {mixent.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
