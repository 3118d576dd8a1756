"""The closed loop, machine-speed reference, in-memory spans and percentiles.

The host this benchmark was defined on lends its CPUs to other tenants, and
the same code runs up to 1.7 times slower for stretches of seconds to
minutes.  So the loop times a fixed piece of reference work before and
after every block of operations, and reports each operation's latency
also scaled by the reference's nominal time over the mean of the two: its
latency at the reference speed.  The default reference is a pure-Python
kernel (``kernel_ns``); a workload whose operations are processes uses an
interpreter start instead.  Raw latencies are kept beside the scaled ones.

A span is (name, start_ns, end_ns, parent index, op id).  Times come from
``time.monotonic_ns``, which on Linux reads CLOCK_MONOTONIC in every
process, so spans recorded by a child process line up with its parent's.
Spans stay in memory until the run ends and are then written out as JSON.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import Counter
from pathlib import Path

now_ns = time.monotonic_ns

# kernel_ns() on an unloaded 2-vCPU x86-64 VM with CPython 3.11; it only
# sets the scale of the reported latencies.
KERNEL_NOMINAL_NS = 13_000_000


def kernel_ns() -> int:
    """Time one run of a fixed kernel of interpreted work: enumeration, small
    list updates and tallying, as in the program's own hot loops."""
    t0 = now_ns()
    tally: Counter = Counter()
    for assignment in itertools.product(range(5), repeat=6):
        occ = [0, 0]
        for s in assignment:
            occ[s % 2] += 1
        tally[tuple(occ)] += 1
    return now_ns() - t0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        stack = tracer._stack
        self.record = [name, 0, 0, stack[-1] if stack else -1, tracer.op]

    def __enter__(self) -> "_Span":
        t = self.tracer
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        self.record[1] = now_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.record[2] = now_ns()
        self.tracer._stack.pop()


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NoTrace:
    """Stands in for a Tracer when tracing is off; records nothing."""

    op = None

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


class Tracer:
    """Collects spans; ``op`` is the id stamped on spans opened while set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, start: int, end: int, parent: int = -1, op=None) -> int:
        """Record a finished span, e.g. one measured in another process."""
        self.spans.append([name, start, end, parent, op])
        return len(self.spans) - 1

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another, so their durations
        add up without overlap.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def durations(self, name: str, ops=None) -> list[int]:
        return [
            end - start
            for n, start, end, _, op in self.spans
            if n == name and (ops is None or op in ops)
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [dict(zip(("name", "start_ns", "end_ns", "parent", "op"), s)) for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class Workload:
    """What a loop drives: ``block`` operations at a time, by index.

    Subclasses supply ``request(i)``, ``run(request, tracer)`` and
    ``check(request, output)``.  Only ``run`` is timed; the reference check
    runs between operations.
    """

    block = 1
    reference_nominal_ns = KERNEL_NOMINAL_NS

    def reference_ns(self) -> int:
        """Time one run of the reference work; see the module docstring."""
        return kernel_ns()

    def instrumented(self, tr):
        """Context in which calls below ``run`` are also traced, if any."""
        return contextlib.nullcontext()


class Tally:
    """Latency and outcome of every operation run so far."""

    def __init__(self) -> None:
        self.lat_ns: list[int] = []
        self.scale: list[float] = []  # reference speed over the speed around each block
        self.failed = 0
        self.failures: list[str] = []  # the first few messages

    def as_dict(self) -> dict:
        return {
            "lat_ns": self.lat_ns,
            "scale": self.scale,
            "attempted": len(self.lat_ns),
            "failed": self.failed,
            "failures": self.failures,
        }


def run_block(wl: Workload, b: int, tr, tally: Tally) -> None:
    """Run block ``b``.  An exception or a failed check counts the operation
    as failed and the block goes on."""
    with wl.instrumented(tr):
        for i in range(b * wl.block, (b + 1) * wl.block):
            req = wl.request(i)
            tr.op = i
            problem = None
            t0 = now_ns()
            try:
                out = wl.run(req, tr)
            except Exception as exc:  # a failing operation is counted, not fatal
                problem = f"{type(exc).__name__}: {exc}"
            tally.lat_ns.append(now_ns() - t0)
            tr.op = None
            if problem is None:
                try:
                    problem = wl.check(req, out)
                except Exception as exc:  # malformed output the check cannot read
                    problem = f"output check raised {type(exc).__name__}: {exc}"
            if problem:
                tally.failed += 1
                if len(tally.failures) < 5:
                    tally.failures.append(problem)


def _block_between_references(wl: Workload, b: int, tr, tally: Tally, ref_before: int) -> int:
    start = len(tally.lat_ns)
    run_block(wl, b, tr, tally)
    ref_after = wl.reference_ns()
    scale = wl.reference_nominal_ns / ((ref_before + ref_after) / 2)
    tally.scale.extend([scale] * (len(tally.lat_ns) - start))
    return ref_after


def timed_loop(wl: Workload, seconds: float, tr) -> dict:
    """Closed loop, one client, whole blocks until the deadline has passed."""
    tally = Tally()
    deadline = now_ns() + int(seconds * 1e9)
    ref = wl.reference_ns()
    b = 0
    while True:
        ref = _block_between_references(wl, b, tr, tally, ref)
        b += 1
        if now_ns() >= deadline:
            return tally.as_dict()


def paired_loop(wl: Workload, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    """Each block untraced and then traced, on the same requests, until the deadline.

    Alternating block by block exposes both sides to the same drift in
    machine speed, so their ratio isolates the cost of tracing.
    """
    plain, traced = Tally(), Tally()
    deadline = now_ns() + int(seconds * 1e9)
    ref = wl.reference_ns()
    b = 0
    while True:
        ref = _block_between_references(wl, b, NoTrace(), plain, ref)
        ref = _block_between_references(wl, b, tracer, traced, ref)
        b += 1
        if now_ns() >= deadline:
            return plain.as_dict(), traced.as_dict()


def latencies(result: dict) -> list[float]:
    """A loop's latencies, scaled to the reference speed."""
    return [lat * scale for lat, scale in zip(result["lat_ns"], result["scale"])]


def overhead_frac(plain: dict, traced: dict) -> float:
    return sum(latencies(traced)) / sum(latencies(plain)) - 1
