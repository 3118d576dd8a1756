"""Laws that hold for every scenario: how a scenario is written does not
change its numbers, and the overlap moves delta_S one way only.

Each text law rewrites the text of 200 seeded random scenarios (2-30
compartments, every model, Stirling form and weighting) and requires the
same bits from the rewritten text in the repr of the library's report;
the line-order law also requires the same ``mix --format json`` stdout.
Seeded stdlib generators keep the cases fixed.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from mixent.cli import main
from mixent.combinatorics import StirlingForm
from mixent.mixing import (
    GasCompartment,
    MixingScenario,
    SpeciesOverlap,
    Weighting,
    mixing_entropy,
)
from mixent.scenario_io import parse_scenario
from mixent.statmech import CountingModel

SETTINGS = list(itertools.product(CountingModel, StirlingForm, Weighting))
LABEL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-"


def _label(rng: random.Random) -> str:
    return "".join(rng.choice(LABEL_CHARS) for _ in range(rng.randint(1, 8)))


class _Case:
    """One valid random scenario, written out by ``text``."""

    def __init__(self, rng: random.Random, index: int) -> None:
        model, form, weighting = SETTINGS[index % len(SETTINGS)]
        n_comp = rng.randint(2, 30)
        n_species = rng.randint(1, min(n_comp, 6))
        labels: set[str] = set()
        while len(labels) < n_species:
            labels.add(_label(rng))
        self.labels = sorted(labels)
        extra = [rng.choice(self.labels) for _ in range(n_comp - n_species)]
        species = self.labels + extra
        T = rng.choice((0.5, 1.0, 300.0))
        self.compartments = [
            (s, rng.randint(1, 10**6), rng.uniform(0.01, 5.0), T) for s in species
        ]
        # more than two species mix only under one shared overlap
        q = rng.choice((0.0, 0.25, 1.0, rng.random()))
        pairs = itertools.combinations(self.labels, 2)
        self.overlaps = [(a, b, q) for a, b in pairs] if rng.random() < 0.8 else []
        self.header = [
            f"id = law-{index}",
            f"model = {model.value}",
            f"stirling_form = {form.value}",
            f"weighting = {weighting.value}",
        ]
        if rng.random() < 0.3:
            volume = math.fsum(c[2] for c in self.compartments)
            self.header.append(f"final_volume = {volume!r}")

    def lines(self, name: dict[str, str]) -> list[str]:
        """The compartment, then the overlap lines, each label renamed."""
        return [
            f"compartment = {name[s]} {n} {v!r} {T!r}"
            for s, n, v, T in self.compartments
        ] + [f"overlap = {name[a]} {name[b]} {q!r}" for a, b, q in self.overlaps]

    def text(self, lines: list[str]) -> str:
        return "\n".join(self.header + lines) + "\n"


def _cases(seed: int):
    rng = random.Random(seed)
    for index in range(200):
        yield rng, _Case(rng, index)


def _report(text: str) -> str:
    return repr(mixing_entropy(parse_scenario(text).scenario))


@pytest.fixture
def mix_json(capsys, tmp_path, monkeypatch):
    """stdout of ``mix --format json`` on a scenario text."""
    monkeypatch.delenv("MIXENT_KB", raising=False)
    path = tmp_path / "law.scenario"

    def run(text: str) -> str:
        path.write_text(text, encoding="utf-8")
        assert main(["mix", "--scenario", str(path), "--format", "json"]) == 0
        return capsys.readouterr().out

    return run


def test_line_order_changes_no_bit(mix_json):
    """Compartment and overlap lines shuffled among themselves."""
    for rng, case in _cases(20261018):
        lines = case.lines({s: s for s in case.labels})
        text = case.text(lines)
        shuffled = case.text(rng.sample(lines, len(lines)))
        assert _report(shuffled) == _report(text), shuffled
        assert mix_json(shuffled) == mix_json(text), shuffled


def test_species_names_change_no_number():
    """Every species label replaced, consistently, by another."""
    for rng, case in _cases(1871):
        fresh: set[str] = set()
        while len(fresh) < len(case.labels):
            fresh.add(_label(rng))
        rename = dict(zip(case.labels, rng.sample(sorted(fresh), len(fresh))))
        text = case.text(case.lines({s: s for s in case.labels}))
        renamed = case.text(case.lines(rename))
        assert _report(renamed) == _report(text), renamed


def test_overlap_moves_delta_s_one_way():
    """delta_S is non-increasing in q under COMPLEMENT and non-decreasing
    under LITERAL, in every model and form: the inter-species term is
    >= 0, and exactly 0 under distinguishable counting, which never
    notices species.  Up to 1e17 particles per compartment."""
    rng = random.Random(1902)
    for index in range(300):
        model, form, weighting = SETTINGS[index % len(SETTINGS)]
        labels = [f"s{i}" for i in range(rng.randint(1, 6))]
        species = labels + [rng.choice(labels) for _ in range(rng.randint(0, 24))]
        T = rng.choice((0.5, 1.0, 300.0))
        compartments = [
            GasCompartment(
                s, rng.randint(1, 10 ** rng.randint(0, 17)), rng.uniform(0.01, 5.0), T
            )
            for s in species
        ]
        deltas = []
        for q in sorted([0.0, 0.25, 0.5, 0.75, 1.0, rng.random()]):
            pairs = itertools.combinations(labels, 2)
            scenario = MixingScenario.from_compartments(
                compartments,
                overlaps=[SpeciesOverlap(a, b, q) for a, b in pairs],
                model=model,
                stirling_form=form,
                weighting=weighting,
            )
            deltas.append(mixing_entropy(scenario).delta_S)
        if weighting is Weighting.COMPLEMENT:
            deltas.reverse()
        assert deltas == sorted(deltas), (index, model, form, weighting, deltas)


def test_corrected_two_term_delta_s_is_extensive():
    """(N, V) -> (kN, kV) in every compartment scales delta_S by k under
    both corrected models at the two-term form, for k in {2, 3, 10}.

    delta_S is formed from ratio logs, not as a difference of entropies of
    order N ln N, so the tolerance is relative to k delta_S itself:
    5e-13.  These 300 cases measured at most 1.0e-13, and 14 seeds at
    most 2.7e-13; the rest is the rounding of the scaled volumes and of
    each density ratio, against density terms that are second order in
    the density spread.  Subtracting entropies read up to 1.7e-12 on
    these cases and 4.1e-11 on another seed.
    """
    rng = random.Random(1875)
    corrected = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)
    for index in range(300):
        case = _Case(rng, index)
        model = corrected[index % 2]
        weighting = list(Weighting)[index // 2 % 2]

        def scaled(k: int) -> MixingScenario:
            return MixingScenario.from_compartments(
                (GasCompartment(s, k * n, k * v, T) for s, n, v, T in case.compartments),
                overlaps=[SpeciesOverlap(a, b, q) for a, b, q in case.overlaps],
                model=model,
                stirling_form=StirlingForm.TWO_TERM,
                weighting=weighting,
            )

        base = mixing_entropy(scaled(1)).delta_S
        for k in (2, 3, 10):
            delta = mixing_entropy(scaled(k)).delta_S
            assert abs(delta - k * base) <= 5e-13 * k * base, (index, k)


def _one_species(compartments, model, form, volume) -> MixingScenario:
    """The compartments as one species, each of volume(n, V)."""
    return MixingScenario.from_compartments(
        (GasCompartment("gas", n, volume(n, v), T) for _, n, v, T in compartments),
        model=model,
        stirling_form=form,
    )


def test_matched_one_species_merge_is_exactly_zero():
    """One species whose every compartment density equals the merged
    density in floating point gains exactly +0.0 under the corrected
    models at the two-term form, at any N.  Each case tries the volumes
    n / rho, and copies of its first compartment scaled to up to 1e18
    particles; 371 of the 600 tries match."""
    rng = random.Random(1876)
    corrected = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)
    matched = 0
    for index in range(300):
        case = _Case(rng, index)
        s0, n0, v0, T = case.compartments[0]
        rho = n0 / v0
        copies = [(s0, n0 * 10 ** rng.randint(0, 12), v0, T)] * len(case.compartments)
        for compartments, volume in (
            (case.compartments, lambda n, v: n / rho),
            (copies, lambda n, v: v),
        ):
            model = corrected[index % 2]
            scenario = _one_species(compartments, model, StirlingForm.TWO_TERM, volume)
            rho_bar = scenario.total_particles / scenario.final_volume
            if any(c.N / c.V != rho_bar for c in scenario.compartments):
                continue
            matched += 1
            delta = mixing_entropy(scenario).delta_S
            assert delta == 0.0 and math.copysign(1.0, delta) == 1.0, index
    assert matched >= 300


def test_corrected_delta_s_is_never_negative():
    """delta_S >= 0 under the corrected models in every form and weighting,
    on the seeded cases as written and on their one-species versions at
    near-matched density, where a difference of N ln N entropies used to
    go negative."""
    rng = random.Random(1877)
    corrected = (CountingModel.GIBBS_CORRECTED, CountingModel.BOSE_APPROXIMATE)
    for index in range(300):
        case = _Case(rng, index)
        _, form, weighting = SETTINGS[index % len(SETTINGS)]
        model = corrected[index % 2]
        written = MixingScenario.from_compartments(
            (GasCompartment(*c) for c in case.compartments),
            overlaps=[SpeciesOverlap(a, b, q) for a, b, q in case.overlaps],
            model=model,
            stirling_form=form,
            weighting=weighting,
        )
        rho = rng.uniform(0.1, 10.0)
        near = _one_species(case.compartments, model, form, lambda n, v: n / rho)
        for scenario in (written, near):
            delta = mixing_entropy(scenario).delta_S
            assert delta >= 0.0 and math.copysign(1.0, delta) == 1.0, (index, delta)
