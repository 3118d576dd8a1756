"""Tests for the benchmark itself.

    python -m pytest perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import inputs
import measure
import refs
import run
import worker

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace, kind):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_units_table_matches_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert run.UNITS == declared


def _work_dir() -> Path:
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))


def test_benchmark_refuses_a_directory_without_the_program():
    bare = _work_dir()
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "library-mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --------------------------------------------------------------------------
# a wrong reference is a failed operation, and the run goes on


def _off_by_one(fn, index):
    def wrong(*args):
        out = list(fn(*args))
        out[index] = out[index] + 1
        return tuple(out)

    return wrong


def test_wrong_library_references_count_as_failed_operations(monkeypatch):
    monkeypatch.setattr(refs, "mixing_reference", _off_by_one(refs.mixing_reference, 1))
    monkeypatch.setattr(refs, "levels_reference", _off_by_one(refs.levels_reference, 0))
    real_counts = refs.counts_reference
    monkeypatch.setattr(
        refs, "counts_reference", lambda spec: {**real_counts(spec), "binomial": -1}
    )
    wl = worker.LibraryMix(5, inputs.TINY)
    result = measure.timed_loop(wl, 0, measure.NoTrace())
    assert result["attempted"] == wl.block
    assert result["failed"] == result["attempted"]


def test_wrong_oracle_reference_counts_as_failed_operation(monkeypatch):
    monkeypatch.setattr(refs, "comb", lambda n, k: -1)
    wl = worker.OracleSuite(5, inputs.TINY)
    result = measure.timed_loop(wl, 0, measure.NoTrace())
    assert result["attempted"] == wl.block
    assert result["failed"] == result["attempted"]


def test_cli_output_is_checked_against_its_reference(monkeypatch):
    work = _work_dir()
    try:
        wl = run.CliOneshot(5, work, run.child_env(), block=3)
        wl.setup()
        assert measure.timed_loop(wl, 0, measure.NoTrace())["failed"] == 0
        monkeypatch.setattr(refs, "mixing_reference", _off_by_one(refs.mixing_reference, 1))
        monkeypatch.setattr(refs, "levels_reference", _off_by_one(refs.levels_reference, 0))
        monkeypatch.setattr(refs, "counts_reference", lambda spec: {"binomial": 2, "distinguishable": 2})
        result = measure.timed_loop(wl, 0, measure.NoTrace())
        assert result["failed"] == result["attempted"] == 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --------------------------------------------------------------------------
# inputs


def test_same_seed_gives_byte_identical_inputs():
    script = (
        "import pathlib, sys; sys.path.insert(0, 'perfbench'); import inputs; "
        "root = pathlib.Path('.').resolve(); "
        "print(*(inputs.fingerprint(w, int(sys.argv[1]), root) for w in sys.argv[2:]))"
    )

    def digests(seed, hashseed):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(seed), *WORKLOADS],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hashseed},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    first = digests(11, "1")
    assert len(first) == len(WORKLOADS)
    assert digests(11, "2") == first
    assert all(a != b for a, b in zip(digests(12, "1"), first))


def test_generated_scenario_text_is_canonical():
    pool = inputs.library_pool(3, inputs.TINY)
    from mixent import parse_scenario, serialize_scenario

    for req in [r for slot in pool.small["mix"] for r in slot] + list(pool.wide["mix"]):
        assert serialize_scenario(parse_scenario(req.text)) == req.text


def test_a_fifth_of_library_requests_are_wide():
    pool = inputs.library_pool(3, inputs.TINY)
    block = inputs.library_block(pool, 3, 0)
    assert sum(r.wide for r in block) * 5 == len(block)


# --------------------------------------------------------------------------
# references against values known in closed form


@pytest.mark.parametrize(
    "name, expected",
    [
        ("distinct_full", 2000 * math.log(2)),
        ("distinct_half", 1000 * math.log(2)),
        ("partial_overlap", 0.75 * 1000 * math.log(2)),
        ("same_species", 0.0),
        ("spin_field_off", 0.0),
        ("spin_field_on", 1000 * math.log(2)),
    ],
)
def test_mixing_reference_matches_documented_scenarios(name, expected):
    spec = inputs.read_scenario_file(ROOT / "scenarios" / f"{name}.scenario")
    _, delta_S, _, _ = refs.mixing_reference(spec, spec.q)
    assert float(delta_S) == pytest.approx(expected, rel=1e-14, abs=1e-20)


def test_exact_counts_agree_with_the_standard_library():
    assert refs.comb(5000, 1234) == math.comb(5000, 1234)
    assert refs.factorial(300) == math.factorial(300)


def test_latencies_scale_with_the_reference_time_around_their_block():
    class Fixed(measure.Workload):
        block = 2
        reference_nominal_ns = 10
        refs = iter([10, 30, 20])

        def reference_ns(self):
            return next(self.refs)

        def request(self, i):
            return i

        def run(self, req, tr):
            return req

        def check(self, req, out):
            return None

    result = measure.timed_loop(Fixed(), 0, measure.NoTrace())
    assert result["scale"] == [0.5, 0.5]
    assert measure.latencies(result) == [lat / 2 for lat in result["lat_ns"]]


def test_self_time_subtracts_children():
    tr = measure.Tracer()
    parent = tr.add("p", 0, 100)
    tr.add("c1", 10, 30, parent)
    tr.add("c2", 40, 70, parent)
    assert tr.self_times() == [50, 20, 30]
