"""mixent benchmark: three seeded workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {cli-oneshot,library-mix,oracle-suite}
                             --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src``.  Each workload is a closed loop with
one client:

  cli-oneshot   one fresh ``python -m mixent.cli ...`` process per operation,
                timed from spawn to exit, over a seeded rotation of mix
                (csv/json), sweep-overlap, count and entropy commands
  library-mix   one library request per operation in a worker process:
                scenario parse/serialize/mix/sweep, level entropies, or a
                set of counts; a fifth of the requests are wide
  oracle-suite  one verify_counting(N, cells) case per operation in a worker
                process, over the oracle-check default set, pass after pass

Every output is checked against a reference the benchmark computes itself
(refs.py); a mismatch, an exception or a non-zero exit counts as a failed
operation and the run goes on.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
reference machine speed, measured with fixed reference work around every
block of operations (see measure.py), because the host's CPU speed drifts
by up to 1.7 times over minutes; the summary lines give them as measured
as well.

``--trace 1`` reports the per-layer metrics, as measured, from spans
recorded around calls into the program: the named workload runs each block
of operations untraced and then traced (their ratio is
trace.overhead_frac), and the other two workloads run one short round each
so that every layer is reported.  Spans are written to
``.perfbench-out/``.  ``--size tiny`` shrinks the wide requests and the
oracle cases for the benchmark's own tests.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it summarise the run and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import inputs
import refs
from measure import (
    NoTrace,
    Tracer,
    Workload,
    median,
    now_ns,
    latencies,
    overhead_frac,
    paired_loop,
    percentile,
    timed_loop,
)

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
SHIM = ROOT / "perfbench" / "shim.py"
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("cli-oneshot", "library-mix", "oracle-suite")

# Set-up is repeated and its median reported, so one slow start does not
# decide setup_s.
SETUP_REPEATS = 5
# Traced CLI operations in the short round that other workloads' traced
# runs add for the startup and cli layers.
CLI_ROUND_OPS = 5
# Longest a single CLI process, or a worker beyond its run time, may take.
CHILD_TIMEOUT_S = 60

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "startup.interpreter_ms": "ms",
    "startup.import_ms": "ms",
    "startup.modules_loaded": "count",
    "startup.numpy_loaded": "count",
    "cli.main_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "scenario_io.parse_us": "us",
    "scenario_io.serialize_us": "us",
    "mixing.build_us.small": "us",
    "mixing.build_ms.wide": "ms",
    "mixing.eval_us.small": "us",
    "mixing.eval_ms.wide": "ms",
    "mixing.calls": "count",
    "statmech.entropy_us.small": "us",
    "statmech.entropy_ms.wide": "ms",
    "statmech.levels_per_s": "1/s",
    "combinatorics.count_us.small": "us",
    "combinatorics.count_ms.wide": "ms",
    "combinatorics.formula_ms": "ms",
    "oracle.assignments": "count",
    "oracle.assignments_per_s": "1/s",
    "oracle.patterns_per_s": "1/s",
    "oracle.enum_busy_s": "s",
    "oracle.cases": "count",
    "oracle.cases_failed": "count",
    "oracle.peak_alloc_mb": "MB",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MIXENT_KB", None)  # rescales CLI output to SI units
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------------------
# cli-oneshot


class CliOneshot(Workload):
    """Each operation is one CLI process; traced operations run shim.py instead."""

    # The reference is one interpreter start, `python -c pass`: process
    # start-up that no change to the program can speed up.  Its time on an
    # unloaded 2-vCPU x86-64 VM with CPython 3.11:
    reference_nominal_ns = 65_000_000

    def __init__(self, seed: int, work: Path, env: dict, block: int = 4) -> None:
        self.seed = seed
        self.work = work
        self.env = env
        self.block = block
        self.cmds: list[inputs.CliCommand] = []
        self.import_counts: list[tuple[int, int]] = []
        self.stdout_bytes: list[int] = []

    def setup(self) -> float:
        """Generate inputs, write the scenario files and warm up; returns seconds."""
        t0 = now_ns()
        self.cmds, files = inputs.cli_commands(self.seed, ROOT, self.work)
        for name, text in files.items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.run(self.cmds[0], NoTrace())
        return (now_ns() - t0) / 1e9

    def request(self, i: int) -> inputs.CliCommand:
        return self.cmds[i % len(self.cmds)]

    def reference_ns(self) -> int:
        t0 = now_ns()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env,
                       capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
        return now_ns() - t0

    def run(self, cmd: inputs.CliCommand, tr) -> subprocess.CompletedProcess:
        traced = isinstance(tr, Tracer)
        if traced:
            spans_file = self.work / f"shim-{tr.op}.json"
            argv = [sys.executable, str(SHIM), str(spans_file), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "mixent.cli", *cmd.argv]
        t0 = now_ns()
        proc = subprocess.run(
            argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        t1 = now_ns()
        if traced:
            rec = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            if not Path(rec["mixent_file"]).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"child imported mixent from {rec['mixent_file']}")
            process = tr.add("cli.process", t0, t1, op=tr.op)
            tr.add("startup.interpreter", t0, rec["start_ns"], process, tr.op)
            tr.add("startup.import", *rec["import"], process, tr.op)
            tr.add("cli.main", *rec["main"], process, tr.op)
            self.import_counts.append((rec["modules_loaded"], rec["numpy_loaded"]))
            self.stdout_bytes.append(rec["stdout_bytes"])
        return proc

    @staticmethod
    def check(cmd: inputs.CliCommand, proc: subprocess.CompletedProcess) -> str | None:
        return refs.check_cli(cmd, proc.returncode, proc.stdout)

    def layer_metrics(self, tr: Tracer) -> dict:
        def ms(name):
            return median(tr.durations(name)) / 1e6

        return {
            "startup.interpreter_ms": ms("startup.interpreter"),
            "startup.import_ms": ms("startup.import"),
            "startup.modules_loaded": median(c[0] for c in self.import_counts),
            "startup.numpy_loaded": median(c[1] for c in self.import_counts),
            "cli.main_ms": ms("cli.main"),
            "cli.stdout_bytes": sum(self.stdout_bytes) / len(self.stdout_bytes),
        }


def cli_traced_round(seed: int, work: Path, env: dict, seconds: float, block: int,
                     spans: Path) -> tuple[dict, dict]:
    """Untraced and traced operations, alternating; returns (metrics, counts)."""
    wl = CliOneshot(seed, work, env, block)
    wl.setup()
    tr = Tracer()
    plain, traced = paired_loop(wl, seconds, tr)
    tr.write(spans)
    metrics = wl.layer_metrics(tr)
    metrics["trace.overhead_frac"] = overhead_frac(plain, traced)
    return metrics, _merge_counts(plain, traced)


# --------------------------------------------------------------------------
# in-process workloads


def spawn_worker(workload: str, args, env: dict, *, seconds: float, trace: int,
                 setup_only: bool = False, spans: Path | None = None) -> tuple[float, dict]:
    """Run worker.py; returns (seconds from spawn to READY, its result)."""
    argv = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--size", args.size,
    ]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--spans", str(spans)]
    t0 = now_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = (now_ns() - t0) / 1e9
        out, _ = proc.communicate(timeout=seconds + CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def _merge_counts(*parts: dict) -> dict:
    return {
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    }


# --------------------------------------------------------------------------


def end_to_end(lat_ns: list[float], attempted: int, failed: int, setups: list[float],
               peak_rss_kb: int) -> dict:
    return {
        "ops_per_s": len(lat_ns) / (sum(lat_ns) / 1e9),
        "op_p50_ms": percentile(lat_ns, 50) / 1e6,
        "op_p95_ms": percentile(lat_ns, 95) / 1e6,
        "ok_frac": 1 - failed / attempted,
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def _setup_at_reference_speed(setup, wl: Workload) -> float:
    """Run one set-up; its seconds, scaled like the operations' latencies."""
    before = wl.reference_ns()
    seconds = setup()
    return seconds * wl.reference_nominal_ns / ((before + wl.reference_ns()) / 2)


def run_untraced(args, work: Path, env: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics at the reference speed, and the same metrics as measured."""
    if args.workload == "cli-oneshot":
        wl = CliOneshot(args.seed, work, env)
        setups = [_setup_at_reference_speed(wl.setup, wl) for _ in range(SETUP_REPEATS)]
        result = timed_loop(wl, args.seconds, NoTrace())
        # Largest resident set among the CLI processes this run waited for.
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        def setup():
            return spawn_worker(args.workload, args, env, seconds=0, trace=0, setup_only=True)[0]

        setups = [_setup_at_reference_speed(setup, Workload()) for _ in range(SETUP_REPEATS)]
        result = spawn_worker(args.workload, args, env, seconds=args.seconds, trace=0)[1]
    counts = (result["attempted"], result["failed"], setups, result["peak_rss_kb"])
    return end_to_end(latencies(result), *counts), result, end_to_end(result["lat_ns"], *counts)


def run_traced(args, work: Path, env: dict) -> tuple[dict, dict]:
    """Per-layer metrics: the named workload in full, the others in one short round each."""
    metrics: dict = {}
    counts = []
    for workload in WORKLOADS:
        own = workload == args.workload
        spans = SPANS_DIR / f"spans-{workload}{'' if own else '-round'}.json"
        if workload == "cli-oneshot":
            seconds, block = (args.seconds, 1) if own else (0, CLI_ROUND_OPS)
            part, c = cli_traced_round(args.seed, work, env, seconds, block, spans)
        else:
            _, res = spawn_worker(
                workload, args, env, seconds=args.seconds if own else 0, trace=1, spans=spans
            )
            part, c = res["metrics"], res
        if not own:
            part.pop("trace.overhead_frac")
        metrics.update(part)
        counts.append(c)
    return metrics, _merge_counts(*counts)


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (checkout has no .git)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(args) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mixent benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixent" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no mixent checkout at {ROOT} (src/mixent and scenarios/ are missing)",
              file=sys.stderr)
        return 2

    env = child_env()
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench-work"))
    raw = None
    try:
        if args.trace:
            metrics, counts = run_traced(args, work, env)
        else:
            metrics, counts, raw = run_untraced(args, work, env)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = counts["attempted"], counts["failed"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if raw is not None:
        lat = counts["lat_ns"]
        p95 = percentile(lat, 95)
        print(f"# latency samples={len(lat)} beyond_p95={sum(1 for x in lat if x > p95)}")
        for name in ("ops_per_s", "op_p50_ms", "op_p95_ms"):
            print(f"# as measured: {name} = {raw[name]!r} {UNITS[name]}")
    print(f"# failed_frac = {failed / attempted!r} ({failed} of {attempted} operations)")
    for problem in counts["failures"]:
        print(f"# failure: {problem}")
    metrics = {name: metrics[name] for name in UNITS if name in metrics}
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {UNITS[name]}")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
