"""CLI stdout on the shipped scenarios, byte for byte.

``tests/golden/<scenario>.<mix|sweep>.<csv|json>`` hold the output of
``mixent mix`` and ``mixent sweep-overlap --points 101`` in reduced units.
A change that alters any digit of them changes what users see, and has to
regenerate these files on purpose:

    for f in scenarios/*.scenario; do s=$(basename $f .scenario)
      for fmt in csv json; do
        mixent mix --scenario $f --format $fmt > tests/golden/$s.mix.$fmt
        mixent sweep-overlap --scenario $f --points 101 --format $fmt \\
          > tests/golden/$s.sweep.$fmt
      done
    done
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mixent.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.scenario"))
COMMANDS = {
    "mix": ["mix"],
    "sweep": ["sweep-overlap", "--points", "101"],
}


def test_every_scenario_has_golden_output():
    assert len(SCENARIOS) == 6
    expected = {
        f"{path.stem}.{command}.{fmt}"
        for path in SCENARIOS
        for command in COMMANDS
        for fmt in ("csv", "json")
    }
    assert {p.name for p in (ROOT / "tests" / "golden").iterdir()} == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("scenario", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_stdout_matches_golden(capsys, monkeypatch, scenario, command, fmt):
    monkeypatch.delenv("MIXENT_KB", raising=False)
    argv = COMMANDS[command] + ["--scenario", str(scenario), "--format", fmt]
    assert main(argv) == 0
    golden = ROOT / "tests" / "golden" / f"{scenario.stem}.{command}.{fmt}"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
