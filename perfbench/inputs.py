"""Seeded inputs for the three workloads.

Stdlib only and free of any ``mixent`` import: the program under test
receives nothing but what these functions generate.  Every generator
draws from ``random.Random`` seeded with a string, which CPython hashes
with SHA-512, so the same seed gives byte-identical inputs in every
process regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

MODELS = ("distinguishable", "gibbs-corrected", "bose-approximate")
FORMS = ("two-term", "three-term", "exact")
WEIGHTINGS = ("complement", "literal")

# The sweep every mixing request runs after its main evaluation.
SWEEP_POINTS = (0.0, 0.5, 1.0)

# One library-mix block: four small requests of each kind and one wide one,
# so a fifth of the requests are wide.  Runs end on block boundaries so the
# small/wide composition, and with it ops_per_s, does not depend on where
# the clock ran out.  Small sizes follow a fixed schedule of slots, so every
# seed asks for the same amount of work; the seed draws the values in each
# slot and the order of the block.  Otherwise p50, which falls between the
# cost populations of the request kinds, would move with the seed.
KINDS = ("mix", "levels", "counts")
SMALL_SLOTS = {
    "mix": ((2, 1), (2, 2), (3, 3), (4, 4)),  # (compartments, species)
    "levels": (2, 4, 6, 8),  # levels
    "counts": (1, 2, 3, 4),  # cells
}
VARIANTS = 32  # seeded variants of each small slot, so no seed is unusually cheap or dear
WIDE_VARIANTS = 2
WIDE_COUNT_CELLS = 4

# The oracle-check default set at the time this benchmark was defined
# (mixent.oracle.FIXED_CELL_SUITE x N = 0..8, 45 cases).  Kept here so that
# a change to the program's suite does not silently change this workload.
ORACLE_LAYOUTS = ((1, 1), (2, 1), (2, 2), (1, 1, 1), (3, 2))

# Header of `mixent mix` / `sweep-overlap` CSV output, as documented.
CSV_HEADER = (
    "scenario,model,stirling_form,weighting,overlap,"
    "S_initial,S_final,delta_S,separation_work,units"
)


@dataclass(frozen=True)
class Sizes:
    """Request sizes; FULL is the benchmark, TINY keeps its own tests fast."""

    wide_compartments: int
    wide_species: int
    wide_levels: int
    wide_count_n: int
    oracle_max_n: int


FULL = Sizes(
    wide_compartments=1000,
    wide_species=50,
    wide_levels=10_000,
    wide_count_n=5000,
    oracle_max_n=8,
)
TINY = Sizes(
    wide_compartments=40,
    wide_species=8,
    wide_levels=200,
    wide_count_n=200,
    oracle_max_n=4,
)
SIZES = {"full": FULL, "tiny": TINY}


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"mixent-perfbench:{workload}:{seed}:{part}")


# --------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one mixing scenario, as the benchmark knows them."""

    id: str
    model: str
    stirling_form: str
    weighting: str
    compartments: tuple[tuple[str, int, float, float], ...]  # species, N, V, T
    q: float  # every listed species pair carries this overlap
    final_volume: float

    @property
    def species(self) -> tuple[str, ...]:
        return tuple(sorted({c[0] for c in self.compartments}))

    @property
    def temperature(self) -> float:
        return self.compartments[0][3]


def scenario_text(spec: ScenarioSpec) -> str:
    """Scenario file text in the canonical layout of `serialize_scenario`."""
    lines = [
        f"id = {spec.id}",
        f"model = {spec.model}",
        f"stirling_form = {spec.stirling_form}",
        f"weighting = {spec.weighting}",
        f"final_volume = {spec.final_volume!r}",
    ]
    for species, n, v, t in spec.compartments:
        lines.append(f"compartment = {species} {n} {v!r} {t!r}")
    for a, b in itertools.combinations(spec.species, 2):
        lines.append(f"overlap = {a} {b} {spec.q!r}")
    return "\n".join(lines) + "\n"


def _scenario(rng: random.Random, sid: str, n_comp: int, n_species: int) -> ScenarioSpec:
    names = [f"sp{k}" for k in range(n_species)]
    T = rng.choice((0.5, 1.0, 2.0, 300.0))
    comps = []
    for i in range(n_comp):
        species = names[i] if i < n_species else rng.choice(names)
        comps.append((species, rng.randint(1, 1000), round(rng.uniform(0.1, 2.0), 4), T))
    final_volume = 0.0
    for c in comps:
        final_volume += c[2]
    return ScenarioSpec(
        id=sid,
        model=rng.choice(MODELS),
        stirling_form=rng.choice(FORMS),
        weighting=rng.choice(WEIGHTINGS),
        compartments=tuple(comps),
        q=rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)),
        final_volume=final_volume,
    )


def read_scenario_file(path: Path) -> ScenarioSpec:
    """The benchmark's own reader for the committed scenario files.

    Independent of `mixent.scenario_io`; it handles only what those files
    use (every listed overlap must agree, as the program requires).
    """
    fields: dict[str, str] = {}
    comps = []
    overlaps = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "compartment":
            species, n, v, t = value.split()
            comps.append((species, int(n), float(v), float(t)))
        elif key == "overlap":
            overlaps.add(float(value.split()[2]))
        else:
            fields[key] = value
    if len(overlaps) > 1:
        raise ValueError(f"{path}: unequal overlaps are outside this reader")
    volume = 0.0
    for c in comps:
        volume += c[2]
    return ScenarioSpec(
        id=fields.get("id", path.stem),
        model=fields.get("model", "gibbs-corrected"),
        stirling_form=fields.get("stirling_form", "two-term"),
        weighting=fields.get("weighting", "complement"),
        compartments=tuple(comps),
        q=overlaps.pop() if overlaps else 0.0,
        final_volume=float(fields["final_volume"]) if "final_volume" in fields else volume,
    )


# --------------------------------------------------------------------------
# library-mix


@dataclass(frozen=True)
class LevelsSpec:
    levels: tuple[tuple[float, int], ...]  # energy, degeneracy
    N: int
    T: float
    model: str
    stirling_form: str


@dataclass(frozen=True)
class CountsSpec:
    N: int  # binomial(N, k)
    k: int
    occ: tuple[int, ...]  # multiplicity_* over (occ, degs)
    degs: tuple[int, ...]
    bose_n: int  # multiplicity_bose_exact(bose_n, bose_g)
    bose_g: int


@dataclass(frozen=True)
class Request:
    kind: str  # one of KINDS
    wide: bool
    spec: object  # ScenarioSpec | LevelsSpec | CountsSpec
    text: str = ""  # scenario text for kind "mix"


def _levels(rng: random.Random, n_levels: int, N: int) -> LevelsSpec:
    T = round(rng.uniform(0.5, 3.0), 3)
    levels = tuple(
        (round(rng.uniform(0.0, 4.0) * T, 6), rng.randint(1, 4)) for _ in range(n_levels)
    )
    return LevelsSpec(levels, N, T, rng.choice(MODELS), rng.choice(FORMS))


def _composition(rng: random.Random, N: int, parts: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, N) for _ in range(parts - 1))
    bounds = [0, *cuts, N]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _counts(rng: random.Random, N: int, m: int) -> CountsSpec:
    g = rng.randint(1, 5)
    return CountsSpec(
        N=N,
        k=rng.randint(0, N),
        occ=_composition(rng, N, m),
        degs=tuple(rng.randint(1, 5) for _ in range(m)),
        # wide requests (N above the small limit of 100) fill the exact limit
        bose_n=N - (g - 1) if N > 100 else rng.randint(0, N),
        bose_g=g,
    )


def _small(rng: random.Random, kind: str, slot, rid: str) -> Request:
    if kind == "mix":
        spec = _scenario(rng, rid, *slot)
        return Request(kind, False, spec, scenario_text(spec))
    if kind == "levels":
        return Request(kind, False, _levels(rng, slot, rng.randint(1, 100)))
    return Request(kind, False, _counts(rng, rng.randint(1, 100), slot))


def _wide(rng: random.Random, kind: str, rid: str, sizes: Sizes) -> Request:
    if kind == "mix":
        spec = _scenario(rng, rid, sizes.wide_compartments, sizes.wide_species)
        return Request(kind, True, spec, scenario_text(spec))
    if kind == "levels":
        return Request(kind, True, _levels(rng, sizes.wide_levels, rng.randint(10_000, 1_000_000)))
    return Request(kind, True, _counts(rng, sizes.wide_count_n, WIDE_COUNT_CELLS))


@dataclass(frozen=True)
class LibraryPool:
    small: dict  # kind -> one tuple of seeded variants per slot
    wide: dict  # kind -> tuple of seeded variants


def library_pool(seed: int, sizes: Sizes = FULL) -> LibraryPool:
    rng = _rng("library-mix", seed, "pool")
    small = {
        kind: tuple(
            tuple(_small(rng, kind, slot, f"s-{kind}-{j}-{i}") for i in range(VARIANTS))
            for j, slot in enumerate(slots)
        )
        for kind, slots in SMALL_SLOTS.items()
    }
    wide = {
        kind: tuple(_wide(rng, kind, f"w-{kind}-{i}", sizes) for i in range(WIDE_VARIANTS))
        for kind in KINDS
    }
    return LibraryPool(small, wide)


def library_block(pool: LibraryPool, seed: int, block: int) -> list[Request]:
    """The requests of one block, in seeded order."""
    rng = _rng("library-mix", seed, f"block-{block}")
    reqs = [rng.choice(variants) for kind in KINDS for variants in pool.small[kind]]
    reqs += [pool.wide[kind][block % WIDE_VARIANTS] for kind in KINDS]
    rng.shuffle(reqs)
    return reqs


# --------------------------------------------------------------------------
# oracle-suite


def oracle_pass(seed: int, index: int, sizes: Sizes = FULL) -> list[tuple[int, tuple[int, ...]]]:
    """One pass over the default case set, (N, cells), in seeded order."""
    cases = [(N, cells) for cells in ORACLE_LAYOUTS for N in range(sizes.oracle_max_n + 1)]
    _rng("oracle-suite", seed, f"pass-{index}").shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# cli-oneshot


@dataclass(frozen=True)
class CliCommand:
    argv: tuple[str, ...]  # arguments after `python -m mixent.cli`
    kind: str  # mix | sweep | binomial | multiplicity | entropy
    spec: object  # ScenarioSpec | CountsSpec | LevelsSpec
    fmt: str = "csv"


def cli_commands(seed: int, root: Path, work: Path) -> tuple[list[CliCommand], dict[str, str]]:
    """The command rotation and the generated scenario files it reads.

    Returns the commands in seeded order and {file name: text} for the
    files to write into ``work``.  Paths in argv are relative to ``root``.
    """
    rng = _rng("cli-oneshot", seed, "commands")
    files = {}
    scenarios = []
    for path in sorted((root / "scenarios").glob("*.scenario")):
        scenarios.append((path.relative_to(root).as_posix(), read_scenario_file(path)))
    for i in range(6):
        n_comp = rng.randint(2, 4)
        spec = _scenario(rng, f"gen-{i}", n_comp, rng.randint(1, n_comp))
        name = f"gen_{i}.scenario"
        files[name] = scenario_text(spec)
        scenarios.append(((work / name).relative_to(root).as_posix(), spec))

    cmds = []
    for rel, spec in scenarios:
        for fmt in ("csv", "json"):
            cmds.append(CliCommand(("mix", "--scenario", rel, "--format", fmt), "mix", spec, fmt))
    for rel, spec in rng.sample(scenarios, 4):
        cmds.append(CliCommand(("sweep-overlap", "--scenario", rel, "--points", "101"), "sweep", spec))
    for _ in range(4):
        c = _counts(rng, rng.randint(1, 100), rng.randint(1, 4))
        cmds.append(CliCommand(("count", "binomial", str(c.N), str(c.k)), "binomial", c))
        cmds.append(
            CliCommand(
                ("count", "multiplicity", "--occ", ",".join(map(str, c.occ)),
                 "--deg", ",".join(map(str, c.degs))),
                "multiplicity",
                c,
            )
        )
        lv = _levels(rng, rng.randint(1, 8), rng.randint(1, 100))
        levels_arg = ",".join(f"{e!r}:{g}" for e, g in lv.levels)
        cmds.append(
            CliCommand(
                ("entropy", "--N", str(lv.N), "--T", repr(lv.T), "--levels", levels_arg,
                 "--model", lv.model, "--stirling-form", lv.stirling_form),
                "entropy",
                lv,
            )
        )
    rng.shuffle(cmds)
    return cmds, files


# --------------------------------------------------------------------------


def fingerprint(workload: str, seed: int, root: Path, sizes: Sizes = FULL) -> str:
    """SHA-256 over every input a workload generates for ``seed``."""
    if workload == "library-mix":
        pool = library_pool(seed, sizes)
        blocks = [library_block(pool, seed, b) for b in range(4)]
        data = [[asdict(r) for r in block] for block in blocks]
    elif workload == "oracle-suite":
        data = [oracle_pass(seed, i, sizes) for i in range(4)]
    else:
        cmds, files = cli_commands(seed, root, root / ".perfbench-work" / "x")
        data = [[asdict(c) for c in cmds], files]
    blob = json.dumps(data, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()
