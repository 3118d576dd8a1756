"""Independent references for every output the benchmark checks.

Nothing here calls ``mixent``.  Entropies are the documented closed forms
evaluated in mpmath at 40 significant digits; counts are exact integers
built from the benchmark's own factorial and binomial loops.  Each check
returns None when an output agrees with its reference and a one-line
message otherwise; callers count a message as a failed operation.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

import inputs

_DPS = 40
# Doubles carry ~1.1e-16 relative error per rounding; sums over up to 10k
# terms of magnitude `scale` stay below 1e-12 * scale.  The CLI prints 12
# significant digits, which adds up to 5e-12 relative.
LIB_RTOL = 1e-10
CLI_RTOL = 5e-11


@functools.lru_cache(maxsize=None)
def _mp():
    import mpmath  # deferred: only checks need it, and it is not light to import

    ctx = mpmath.mp.clone()
    ctx.dps = _DPS
    return ctx


def _log_factorial(mp, n, form: str):
    if form == "exact":
        return mp.loggamma(n + 1)
    value = n * mp.log(n) - n
    if form == "three-term":
        value += mp.log(2 * mp.pi * n) / 2
    return value


def _close(got: float, want, scale, rtol: float) -> bool:
    return abs(got - float(want)) <= rtol * float(scale)


# --------------------------------------------------------------------------
# mixing


@functools.lru_cache(maxsize=4096)
def _mixing_parts(spec: inputs.ScenarioSpec):
    """(S_initial, density term, species term, scale) at high precision."""
    mp = _mp()
    T = mp.mpf(spec.temperature)
    corrected = spec.model != "distinguishable"

    def S(n, V):
        n = mp.mpf(n)
        value = n * mp.log(mp.mpf(V)) + mp.mpf(3) / 2 * n * mp.log(T)
        if corrected:
            value -= _log_factorial(mp, n, spec.stirling_form)
        return value

    initial = [S(n, V) for _, n, V, _ in spec.compartments]
    per_species: dict[str, int] = {}
    for species, n, _, _ in spec.compartments:
        per_species[species] = per_species.get(species, 0) + n
    distinct = [S(n, spec.final_volume) for n in per_species.values()]
    identical = S(sum(per_species.values()), spec.final_volume)
    S_initial = mp.fsum(initial)
    density = identical - S_initial
    species_term = mp.fsum(distinct) - identical
    scale = mp.fsum(abs(x) for x in initial + distinct) + abs(identical)
    return S_initial, density, species_term, scale


def mixing_reference(spec: inputs.ScenarioSpec, q: float):
    """(S_initial, delta_S, applied overlap, scale) when every pair has overlap q."""
    S_initial, density, species_term, scale = _mixing_parts(spec)
    if len(spec.species) == 1:
        q = 1.0
    w = 1 - q * q if spec.weighting == "complement" else q * q
    return S_initial, density + w * species_term, q, scale


def check_mixing_report(report, spec: inputs.ScenarioSpec, q: float) -> str | None:
    S_initial, delta_S, q_applied, scale = mixing_reference(spec, q)
    T = spec.temperature
    problems = []
    if report.overlap_applied != q_applied:
        problems.append(f"overlap {report.overlap_applied!r} != {q_applied!r}")
    if not _close(report.S_initial.S, S_initial, scale, LIB_RTOL):
        problems.append(f"S_initial {report.S_initial.S!r} != {float(S_initial)!r}")
    if not _close(report.delta_S, delta_S, scale, LIB_RTOL):
        problems.append(f"delta_S {report.delta_S!r} != {float(delta_S)!r}")
    if not _close(report.separation_work, T * delta_S, T * scale, LIB_RTOL):
        problems.append(f"separation_work {report.separation_work!r} != {float(T * delta_S)!r}")
    if problems:
        return f"{spec.id} q={q}: " + "; ".join(problems)
    return None


def check_parsed_scenario(sf, spec: inputs.ScenarioSpec) -> str | None:
    s = sf.scenario
    got = (
        sf.id,
        s.model.value,
        s.stirling_form.value,
        s.weighting.value,
        s.final_volume,
        tuple((c.species, c.N, c.V, c.T) for c in s.compartments),
    )
    want = (
        spec.id,
        spec.model,
        spec.stirling_form,
        spec.weighting,
        spec.final_volume,
        spec.compartments,
    )
    if got != want:
        return f"{spec.id}: parsed scenario differs from its text"
    n_species = len(spec.species)
    overlaps = sorted((o.species_a, o.species_b, o.overlap) for o in s.overlaps)
    if len(overlaps) != n_species * (n_species - 1) // 2 or any(o[2] != spec.q for o in overlaps):
        return f"{spec.id}: parsed overlaps differ from the text"
    return None


# --------------------------------------------------------------------------
# levels


@functools.lru_cache(maxsize=256)
def levels_reference(spec: inputs.LevelsSpec):
    """(S, scale) of the most-probable occupations under the counting model."""
    mp = _mp()
    T = mp.mpf(spec.T)
    shift = min(e for e, _ in spec.levels)
    weights = [g * mp.exp(-(mp.mpf(e) - shift) / T) for e, g in spec.levels]
    Z = mp.fsum(weights)
    terms = []
    for w, (_, g) in zip(weights, spec.levels):
        n = spec.N * w / Z
        terms.append(n * mp.log(g))
        terms.append(-_log_factorial(mp, n, spec.stirling_form))
    if spec.model == "distinguishable":
        terms.append(_log_factorial(mp, mp.mpf(spec.N), spec.stirling_form))
    return mp.fsum(terms), mp.fsum(abs(t) for t in terms)


def check_entropy(result, spec: inputs.LevelsSpec) -> str | None:
    S, scale = levels_reference(spec)
    if not _close(result.S, S, scale, LIB_RTOL):
        return f"levels N={spec.N} L={len(spec.levels)}: S {result.S!r} != {float(S)!r}"
    if result.model.value != spec.model or result.stirling_form.value != spec.stirling_form:
        return "levels: result carries the wrong model or form"
    return None


# --------------------------------------------------------------------------
# counts


@functools.lru_cache(maxsize=64)
def factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def comb(n: int, k: int) -> int:
    """Binomial coefficient by the multiplicative rule; exact at every step."""
    out = 1
    for i in range(1, min(k, n - k) + 1):
        out = out * (n - min(k, n - k) + i) // i
    return out


def _ln(x: int):
    return _mp().log(x)


@functools.lru_cache(maxsize=256)
def counts_reference(spec: inputs.CountsSpec) -> dict:
    """Exact value of each count in a request (a Fraction for the rational one)."""
    g_pow = 1
    occ_fact = 1
    for n, g in zip(spec.occ, spec.degs):
        g_pow *= g**n
        occ_fact *= factorial(n)
    N = sum(spec.occ)
    return {
        "binomial": comb(spec.N, spec.k),
        "distinguishable": factorial(N) * g_pow // occ_fact,
        "gibbs": Fraction(g_pow, occ_fact),
        "bose": comb(spec.bose_n + spec.bose_g - 1, spec.bose_n),
    }


def _check_count(name: str, count, exact, scale) -> str | None:
    if isinstance(exact, Fraction):
        want_value = exact.numerator if exact.denominator == 1 else None
        want_log = _ln(exact.numerator) - _ln(exact.denominator)
    else:
        want_value = exact
        want_log = _ln(exact)
    if count.value != want_value:
        return f"{name}: value differs from the exact count"
    if not _close(count.log_value, want_log, abs(want_log) + scale, 1e-12):
        return f"{name}: log_value {count.log_value!r} != {float(want_log)!r}"
    return None


def check_counts(outputs: dict, spec: inputs.CountsSpec) -> str | None:
    ref = counts_reference(spec)
    # Log counts are legitimately formed as differences of ln n! terms, so
    # their rounding error scales with the largest ln n! in the request.
    scale = _mp().loggamma(max(spec.N, sum(spec.occ), spec.bose_n + spec.bose_g - 1) + 1) + 1
    for name in ("binomial", "distinguishable", "gibbs", "bose"):
        problem = _check_count(name, outputs[name], ref[name], scale)
        if problem:
            return f"counts N={spec.N}: {problem}"
    if outputs["gibbs_exact"] != ref["gibbs"]:
        return f"counts N={spec.N}: gibbs_exact differs from the exact rational"
    return None


# --------------------------------------------------------------------------
# oracle

_TOTAL_RE = re.compile(r"enumerated (\d+)")
_VECTORS_RE = re.compile(r"(\d+) occupation vectors agree")


def check_oracle_report(report, N: int, cells: tuple[int, ...]) -> str | None:
    """report.ok, labeled total == G**N, and the occupation-vector count."""
    where = f"oracle N={N} cells={cells}"
    if not report.ok:
        return f"{where}: report not ok"
    if report.N != N or tuple(report.cells.degeneracies) != cells:
        return f"{where}: report is for another case"
    details = {c.identity: c.detail for c in report.checks}
    total = _TOTAL_RE.search(details.get("classical-total", ""))
    if total is None or int(total.group(1)) != sum(cells) ** N:
        return f"{where}: labeled total is not G**N = {sum(cells) ** N}"
    vectors = _VECTORS_RE.search(details.get("distinguishable-multiplicity", ""))
    if vectors is None or int(vectors.group(1)) != comb(N + len(cells) - 1, N):
        return f"{where}: occupation-vector count is not C(N+m-1, N)"
    return None


# --------------------------------------------------------------------------
# CLI output


def _kv_lines(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _check_records(records: list[dict], spec: inputs.ScenarioSpec, qs: list[float]) -> str | None:
    if len(records) != len(qs):
        return f"{len(records)} records, expected {len(qs)}"
    for rec, q in zip(records, qs):
        S_initial, delta_S, q_applied, scale = mixing_reference(spec, q)
        T = spec.temperature
        want = {
            "scenario": spec.id,
            "model": spec.model,
            "stirling_form": spec.stirling_form,
            "weighting": spec.weighting,
            "units": "kB",
        }
        for key, value in want.items():
            if str(rec[key]) != value:
                return f"{key} {rec[key]!r} != {value!r}"
        numbers = {
            "overlap": (q_applied, 1.0),
            "S_initial": (S_initial, scale),
            "S_final": (S_initial + delta_S, scale),
            "delta_S": (delta_S, scale),
            "separation_work": (T * delta_S, T * scale),
        }
        for key, (value, key_scale) in numbers.items():
            if not _close(float(rec[key]), value, key_scale, CLI_RTOL):
                return f"q={q}: {key} {rec[key]} != {float(value)!r}"
    return None


def _csv_records(stdout: str) -> list[dict] | str:
    lines = stdout.splitlines()
    if not lines or lines[0] != inputs.CSV_HEADER:
        return "missing or wrong CSV header"
    keys = inputs.CSV_HEADER.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(keys) for row in rows):
        return "CSV row with the wrong number of cells"
    return [dict(zip(keys, row)) for row in rows]


def check_cli(cmd: inputs.CliCommand, returncode: int, stdout: str) -> str | None:
    """Exit 0 and stdout matching the reference for one CLI command."""
    where = " ".join(cmd.argv[:2])
    if returncode != 0:
        return f"{where}: exit code {returncode}"
    try:
        if cmd.kind in ("mix", "sweep"):
            records = json.loads(stdout) if cmd.fmt == "json" else _csv_records(stdout)
            if isinstance(records, str):
                return f"{where}: {records}"
            if cmd.kind == "mix":
                qs = [cmd.spec.q]
            else:
                points = int(cmd.argv[cmd.argv.index("--points") + 1])
                qs = [i / (points - 1) for i in range(points)]
            problem = _check_records(records, cmd.spec, qs)
        elif cmd.kind == "entropy":
            kv = _kv_lines(stdout)
            S, scale = levels_reference(cmd.spec)
            problem = None
            if not _close(float(kv["S"]), S, scale, CLI_RTOL):
                problem = f"S {kv['S']} != {float(S)!r}"
            elif not _close(float(kv["per_particle"]), S / cmd.spec.N, scale / cmd.spec.N, CLI_RTOL):
                problem = f"per_particle {kv['per_particle']} != {float(S / cmd.spec.N)!r}"
            elif (kv["model"], kv["stirling_form"], kv["units"]) != (
                cmd.spec.model, cmd.spec.stirling_form, "kB"
            ):
                problem = "model, form or units differ"
        else:
            kv = _kv_lines(stdout)
            ref = counts_reference(cmd.spec)
            exact = ref["binomial"] if cmd.kind == "binomial" else ref["distinguishable"]
            problem = None
            if kv["value"] != str(exact):
                problem = "value differs from the exact count"
            elif not _close(float(kv["log_value"]), _ln(exact), abs(_ln(exact)) + 1, CLI_RTOL):
                problem = f"log_value {kv['log_value']} != {float(_ln(exact))!r}"
    except (KeyError, ValueError, TypeError) as exc:
        problem = f"unparseable output ({type(exc).__name__}: {exc})"
    return f"{where}: {problem}" if problem else None
