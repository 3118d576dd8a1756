"""Run the benchmark over several seeds and summarise every end-to-end metric.

    python3 perfbench/baseline.py [--seeds 1 2 ...] [--workloads NAME ...] [--out FILE]

Runs ``run.py`` once per workload and seed, sequentially, for the
``run_seconds`` that BENCHMARK.json fixes.  For each metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound.  With
``--out`` it also writes those figures, every value and the recorded
environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l[len("# env "):]) for l in lines if l.startswith("# env "))
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    env = None
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in args.seeds:
            result, env = run_once(workload, seed, spec["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rows[name] = {
                "median": statistics.median(xs),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(xs),
                "bound": bounds[name],
                "values": xs,
            }
            print(f"  {name:12s} median={rows[name]['median']:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={rows[name]['spread']:.4f} bound={bounds[name]}", flush=True)
        summary[workload] = {"failed": failed, "attempted": attempted, "metrics": rows}

    if args.out:
        doc = {
            "seeds": args.seeds,
            "run_seconds": spec["run_seconds"],
            "environment": env,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
