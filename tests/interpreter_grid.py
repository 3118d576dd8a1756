"""Interpreter independence: one seeded grid of library results, hashed.

The grid covers count ``value``/``log_value`` (exact and log-only),
``mixing_entropy`` over every counting model, Stirling form and
weighting, ``entropy_from_levels`` and ``partition_change_entropy``.
Each result, or the DomainError it raises, is one line of reprs, and
SHA-256 over the lines is the digest.  The same source must give the same
digest on every supported interpreter: a change in how one rounds, sums or
draws seeded numbers shows here.  Stdlib only, so it runs where pytest is
not installed:

    PYTHONPATH=src python tests/interpreter_grid.py

prints the digest and exits 1 when it differs from the committed one in
``tests/interpreter_grid.sha256``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from functools import partial
from pathlib import Path

from mixent import (
    CountingModel,
    EnsembleSpec,
    GasCompartment,
    MixingScenario,
    SpeciesOverlap,
    StirlingForm,
    Weighting,
    binomial,
    classical_symbol_states,
    entropy_from_levels,
    mixing_entropy,
    multiplicity_bose_exact,
    multiplicity_distinguishable,
    multiplicity_gibbs_corrected,
    partition_change_entropy,
)
from mixent.errors import DomainError

COMMITTED = Path(__file__).with_suffix(".sha256")
SEED = 18
LIMITS = (5000, 0)  # every count exact where it can be, then log-only


def _size(rng: random.Random) -> int:
    """A particle number from 1 up to about 1e18, log-uniform in decades."""
    return rng.randint(1, 10 ** rng.randint(1, 18))


def _counts(rng: random.Random):
    for _ in range(300):
        m = rng.randint(1, 4)
        occ = tuple(rng.randint(0, 40) for _ in range(m))
        degs = tuple(rng.randint(1, 6) for _ in range(m))
        n, g = rng.randint(0, 60), rng.randint(1, 9)
        for limit in LIMITS:
            yield partial(multiplicity_distinguishable, occ, degs, exact_limit=limit)
            yield partial(multiplicity_gibbs_corrected, occ, degs, exact_limit=limit)
            yield partial(multiplicity_bose_exact, n, g, exact_limit=limit)
            yield partial(binomial, n + g, n, exact_limit=limit)
            yield partial(classical_symbol_states, n, g, exact_limit=limit)
    for _ in range(100):  # log-only by size
        N = _size(rng)
        yield partial(binomial, N, rng.randint(0, N))
        occ, g = (N, _size(rng)), rng.randint(1, 9)
        yield partial(multiplicity_distinguishable, occ, (1, g))


def _count_line(count) -> tuple:
    return count.value, count.log_value


def _scenarios(rng: random.Random):
    species = "abc"
    for _ in range(60):
        T = rng.uniform(0.1, 10.0)
        comps = tuple(
            GasCompartment(rng.choice(species), _size(rng), rng.uniform(0.01, 100.0), T)
            for _ in range(rng.randint(1, 4))
        )
        q = rng.choice((0.0, 1.0, rng.random()))
        overlaps = tuple(SpeciesOverlap(a, b, q) for a, b in ("ab", "ac", "bc"))
        for model in CountingModel:
            for form in StirlingForm:
                for weighting in Weighting:
                    yield partial(
                        MixingScenario.from_compartments,
                        comps,
                        overlaps=overlaps,
                        model=model,
                        stirling_form=form,
                        weighting=weighting,
                    )


def _report_line(report) -> tuple:
    return (
        report.S_initial.S,
        report.S_final.S,
        report.delta_S,
        report.separation_work,
        report.overlap_applied,
    )


def _ensembles(rng: random.Random):
    for _ in range(60):
        levels = tuple(
            (rng.uniform(-5.0, 5.0), rng.randint(1, 10 ** rng.randint(0, 6)))
            for _ in range(rng.randint(1, 8))
        )
        ensemble = EnsembleSpec(levels=levels, N=_size(rng), T=rng.uniform(0.05, 20.0))
        for model in CountingModel:
            for form in StirlingForm:
                yield partial(entropy_from_levels, ensemble, model, form)


def _partitions(rng: random.Random):
    for _ in range(60):
        parts = rng.randint(2, 16)
        N = parts * _size(rng)  # the exact form needs parts | N
        V, T = rng.uniform(0.01, 1e6), rng.uniform(0.1, 10.0)
        for model in CountingModel:
            for form in StirlingForm:
                yield partial(partition_change_entropy, N, V, T, parts, model, form)


def _lines():
    """One line per result, in a fixed order.  Every argument is drawn
    before its call, so a DomainError changes no later draw."""
    rng = random.Random(SEED)
    grid = (
        (_counts(rng), _count_line),
        (_scenarios(rng), lambda s: _report_line(mixing_entropy(s))),
        (_ensembles(rng), lambda r: (r.S, r.per_particle)),
        (_partitions(rng), _report_line),
    )
    for calls, line in grid:
        for call in calls:
            try:
                yield repr(line(call()))
            except DomainError as exc:
                yield f"DomainError: {exc}"


def digest() -> tuple[int, str]:
    """(number of results, SHA-256 hex digest of their lines)."""
    h = hashlib.sha256()
    n = 0
    for line in _lines():
        h.update(line.encode("ascii") + b"\n")
        n += 1
    return n, h.hexdigest()


def committed() -> str:
    return COMMITTED.read_text(encoding="ascii").strip()


def main() -> int:
    n, got = digest()
    want = committed()
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{got}  {n} results, Python {version}")
    if got != want:
        print(f"differs from the committed digest {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
