"""CLI surface: subcommands, formats, exit codes, units, determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixent.combinatorics
from mixent import cli
from mixent.cli import KB_SI, main
from mixent.combinatorics import Count
from mixent.oracle import FIXED_CELL_SUITE

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
LN2 = math.log(2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCount:
    def test_binomial(self, capsys):
        code, out, _ = run(capsys, "count", "binomial", "12", "5")
        assert code == 0
        assert "value = 792" in out
        assert "log_value = 6.67456" in out

    def test_bose(self, capsys):
        code, out, _ = run(capsys, "count", "bose", "3", "2")
        assert code == 0
        assert "value = 4" in out

    def test_symbols(self, capsys):
        code, out, _ = run(capsys, "count", "symbols", "3", "2")
        assert code == 0
        assert "value = 8" in out

    def test_multiplicity(self, capsys):
        code, out, _ = run(
            capsys, "count", "multiplicity", "--occ", "2,1", "--deg", "2,1"
        )
        assert code == 0
        assert "value = 12" in out

    def test_bose_approx_is_log_only(self, capsys):
        code, out, _ = run(capsys, "count", "bose-approx", "10", "1000")
        assert code == 0
        assert "value = (log-only)" in out
        expected = 10 * math.log(1000) - math.log(math.factorial(10))
        assert f"log_value = {format(expected, '.12g')}" in out

    def test_log_only_above_exact_limit(self, capsys):
        code, out, _ = run(capsys, "count", "binomial", "6000", "3000")
        assert code == 0
        assert "value = (log-only)" in out

    def test_exact_value_beyond_str_digit_limit(self, capsys):
        # 5,001 digits: str() of the int stops at 4,300
        code, out, err = run(capsys, "count", "symbols", "5000", "10")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "value = 1" + "0" * 5000

    def test_long_exact_value_digits(self, capsys):
        # 3,381 digits, joined from binary halves: str() itself agrees here
        code, out, _ = run(capsys, "count", "symbols", "4000", "7")
        assert code == 0
        assert out.splitlines()[0] == f"value = {7**4000}"

    def test_overflowing_log_count_exit_1(self, capsys):
        big = str(10**308)
        code, out, err = run(capsys, "count", "symbols", big, big)
        assert (code, out) == (1, "")
        assert err == "error: ln of the count overflows a float\n"

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "count", "binomial", "3", "5")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "binomial", "3")
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_kind_exit_2(self, capsys):
        code, out, err = run(capsys, "count", "frobnicate", "1", "2")
        assert (code, out) == (2, "")
        assert err.startswith("usage error: mixent count: ") and err.count("\n") == 1

    def test_occ_on_wrong_kind_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "binomial", "3", "2", "--occ", "1")
        assert code == 2


class TestEntropy:
    def test_ideal_gas(self, capsys):
        code, out, _ = run(
            capsys,
            "entropy", "--N", "700", "--V", "3.0", "--T", "2.0",
            "--model", "gibbs-corrected",
        )
        assert code == 0
        expected = 700 * math.log(3.0 / 700) + 1.5 * 700 * math.log(2.0) + 700
        assert f"S = {format(expected, '.12g')}" in out
        assert "units = kB" in out
        assert "model = gibbs-corrected" in out

    def test_levels_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "entropy", "--N", "1000", "--T", "1.0",
            "--levels", "0:1,1:1", "--model", "distinguishable",
        )
        assert code == 0
        assert "S = 582.203108888" in out
        assert "per_particle = 0.582203108888" in out

    def test_levels_and_volume_conflict(self, capsys):
        code, _, err = run(
            capsys,
            "entropy", "--N", "10", "--T", "1.0", "--V", "1.0",
            "--levels", "0:1",
        )
        assert code == 2

    def test_constant_is_for_the_ideal_gas_only(self, capsys):
        argv = ("entropy", "--N", "10", "--T", "1", "--levels", "0:1", "--constant", "5")
        assert run(capsys, *argv) == (
            2,
            "",
            "usage error: mixent entropy: argument --constant: "
            "not allowed with argument --levels\n",
        )
        _, plain, _ = run(capsys, "entropy", "--N", "10", "--T", "1", "--V", "2")
        code, shifted, _ = run(
            capsys, "entropy", "--N", "10", "--T", "1", "--V", "2", "--constant", "5"
        )
        S = float(plain.split("\n")[0].removeprefix("S = "))
        assert (code, shifted.split("\n")[0]) == (0, f"S = {S + 5:.12g}")

    def test_missing_volume(self, capsys):
        code, _, err = run(capsys, "entropy", "--N", "10", "--T", "1.0")
        assert code == 2

    def test_bad_model_choice(self, capsys):
        code, out, err = run(
            capsys,
            "entropy", "--N", "10", "--V", "1.0", "--T", "1.0", "--model", "anyons",
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage error: mixent entropy: ") and err.count("\n") == 1

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(
            capsys, "entropy", "--N", "10", "--V", "-1.0", "--T", "1.0"
        )
        assert code == 1

    # argparse alone reads -1e-05 or -inf after a space as an option string
    @pytest.mark.parametrize(
        "flag, value, code",
        [
            ("--constant", "-1e-05", 0),
            ("--constant", "-1E+2", 0),
            ("--constant", "-.5", 0),
            ("--V", "-1e-05", 1),
            ("--V", "-inf", 1),
            ("--V", "-Infinity", 1),
            ("--V", "-nan", 1),
            ("--levels", "-1:1,0:2", 0),
            ("--N", "-1e5", 2),
        ],
    )
    def test_negative_number_reads_as_after_equals(self, capsys, flag, value, code):
        argv = ["entropy", "--T", "1.0"]
        argv += [] if flag == "--N" else ["--N", "10"]
        argv += [] if flag in ("--V", "--levels") else ["--V", "1.0"]
        spaced = run(capsys, *argv, flag, value)
        assert spaced == run(capsys, *argv, f"{flag}={value}")
        assert spaced[0] == code
        assert "expected one argument" not in spaced[2]

    def test_overflowing_N_exit_1(self, capsys):
        code, out, err = run(
            capsys, "entropy", "--N", "1" + "0" * 400, "--T", "1", "--V", "1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_si_units(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXENT_KB", "si")
        code, out, _ = run(
            capsys,
            "entropy", "--N", "700", "--V", "3.0", "--T", "2.0",
            "--model", "gibbs-corrected",
        )
        assert code == 0
        expected = (
            700 * math.log(3.0 / 700) + 1.5 * 700 * math.log(2.0) + 700
        ) * KB_SI
        assert f"S = {format(expected, '.12g')}" in out
        assert "units = J/K" in out

    def test_bad_units_env_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXENT_KB", "imperial")
        code, _, err = run(
            capsys, "entropy", "--N", "10", "--V", "1.0", "--T", "1.0"
        )
        assert code == 1


class TestUnitsEnvironment:
    """Only the subcommands that print units read MIXENT_KB."""

    BAD = "error: MIXENT_KB must be 'reduced' or 'si', got 'bogus'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "binomial", "5", "2"),
            ("count", "multiplicity", "--occ", "2,1", "--deg", "2,1"),
            ("oracle-check", "--max-n", "2"),
        ],
    )
    def test_unitless_subcommands_ignore_it(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MIXENT_KB", raising=False)
        unset = run(capsys, *argv)
        monkeypatch.setenv("MIXENT_KB", "bogus")
        assert run(capsys, *argv) == unset
        assert unset[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy", "--N", "10", "--V", "1.0", "--T", "1.0"),
            ("mix", "--scenario", str(SCENARIO_DIR / "distinct_half.scenario")),
            ("sweep-overlap", "--scenario", str(SCENARIO_DIR / "distinct_half.scenario")),
            # units are resolved before the scenario file is read
            ("sweep-overlap", "--scenario", str(SCENARIO_DIR / "no_such.scenario")),
            ("mix", "--scenario", str(SCENARIO_DIR / "no_such.scenario")),
        ],
    )
    def test_subcommands_with_units_reject_it(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MIXENT_KB", "bogus")
        assert run(capsys, *argv) == (1, "", self.BAD)

    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy", "--N", "x", "--V", "1.0", "--T", "1.0"),
            ("entropy", "--N", "10", "--T", "1.0"),
            ("sweep-overlap", "--scenario", "x", "--points", "y"),
            ("sweep-overlap", "--scenario", "x", "--points", "1"),
        ],
    )
    def test_usage_errors_come_before_it(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MIXENT_KB", "bogus")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage error: mixent {argv[0]}: ")
        assert err.count("\n") == 1


# three species whose pairs disagree: mix rejects it, a sweep replaces them
UNEQUAL_OVERLAPS = (
    "compartment = a 10 1.0 1.0\ncompartment = b 10 1.0 1.0\n"
    "compartment = c 10 1.0 1.0\noverlap = a b 0.25\n"
    "overlap = a c 0.75\noverlap = b c 0.25\n"
)


class TestMix:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "mix", "--scenario", str(SCENARIO_DIR / "distinct_half.scenario")
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["scenario"] == "distinct-half"
        assert row["model"] == "gibbs-corrected"
        assert row["units"] == "kB"
        assert float(row["delta_S"]) == pytest.approx(1000 * LN2, abs=1e-6)
        assert float(row["separation_work"]) == pytest.approx(
            1000 * LN2, abs=1e-6
        )

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys,
            "mix", "--scenario", str(SCENARIO_DIR / "distinct_full.scenario"),
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 1
        assert data[0]["scenario"] == "distinct-full"
        assert data[0]["delta_S"] == pytest.approx(2000 * LN2, abs=1e-6)

    def test_same_species_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "mix", "--scenario", str(SCENARIO_DIR / "same_species.scenario")
        )
        assert code == 0
        assert float(parse_csv(out)[0]["delta_S"]) == 0.0

    def test_deterministic_output(self, capsys):
        path = str(SCENARIO_DIR / "partial_overlap.scenario")
        _, out1, _ = run(capsys, "mix", "--scenario", path)
        _, out2, _ = run(capsys, "mix", "--scenario", path)
        assert out1 == out2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("what even is this\n", ":1:1: expected 'key = value'"),
            (
                "id = short\ncompartment = a 10 1.0\n",
                ":2:15: compartment needs '<species> <N> <V> <T>', got 3 tokens",
            ),
            (
                "compartment = argon 10 1.0 1.0\ncompartment = krypton 10 1.0 1.0\n"
                "overlap = argon krypto 1.0\n",
                ":3:17: overlap names species 'krypto', which no compartment holds",
            ),
        ],
        ids=["no-equals", "short-compartment", "overlap-typo"],
    )
    def test_parse_error_exit_2(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.scenario"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "mix", "--scenario", str(bad))
        assert (code, out, err) == (2, "", f"error: {bad}{message}\n")

    @pytest.mark.parametrize(
        "text, prefix",
        [
            (
                "compartment = a 10 1.0 1.0\ncompartment = b 10 1.0 2.0\n",
                "scenario must be isothermal: ",
            ),
            (
                UNEQUAL_OVERLAPS,
                "pairwise overlaps must all agree when more than two species mix; ",
            ),
        ],
        ids=["unequal-temperatures", "unequal-overlaps"],
    )
    def test_domain_error_exit_1(self, capsys, tmp_path, text, prefix):
        bad = tmp_path / "bad.scenario"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "mix", "--scenario", str(bad))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {prefix}") and err.count("\n") == 1

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "mix", "--scenario", str(tmp_path / "nope.scenario")
        )
        assert code == 2

    def test_directory_exit_2(self, capsys):
        code, out, err = run(capsys, "mix", "--scenario", str(SCENARIO_DIR))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["mix", "sweep-overlap"])
    @pytest.mark.parametrize(
        "unreadable", ["name-too-long", "file-as-directory", "symlink-loop"]
    )
    def test_unreadable_path_exit_2(self, capsys, tmp_path, unreadable, command):
        if unreadable == "name-too-long":
            path = tmp_path / ("x" * 5000)
        elif unreadable == "file-as-directory":
            (tmp_path / "afile").write_text("", encoding="utf-8")
            path = tmp_path / "afile" / "x"
        else:
            (tmp_path / "a").symlink_to(tmp_path / "b")
            (tmp_path / "b").symlink_to(tmp_path / "a")
            path = tmp_path / "a"
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["mix", "sweep-overlap"])
    def test_nul_in_path_exit_2(self, capsys, command):
        # open() raises ValueError, not OSError, for a NUL; a shell cannot
        # pass one, so only an in-process caller of main meets it
        code, out, err = run(capsys, command, "--scenario", "a\x00b")
        assert (code, out) == (2, "")
        assert err == "error: 'a\\x00b': embedded null byte\n"

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        text = (SCENARIO_DIR / "distinct_half.scenario").read_bytes()
        bom = tmp_path / "distinct_half.scenario"
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        expected = run(capsys, "mix", "--scenario", str(SCENARIO_DIR / bom.name))
        assert run(capsys, "mix", "--scenario", str(bom)) == expected
        assert expected[0] == 0

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "latin1.scenario"
        bad.write_bytes("compartment = \u00e5 10 1.0 1.0\n".encode("latin-1"))
        code, out, err = run(capsys, "mix", "--scenario", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err

    def test_overflowing_compartment_N_exit_1(self, capsys, tmp_path):
        big = tmp_path / "big.scenario"
        big.write_text(
            "compartment = a 1" + "0" * 400 + " 1.0 1.0\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "mix", "--scenario", str(big))
        assert code == 1
        assert out == ""
        assert err == (
            "error: N must fit a float (at most about 1.8e308), "
            "got a 1329-bit integer\n"
        )

    def test_overflowing_entropy_exit_1(self, capsys, tmp_path):
        big = tmp_path / "big.scenario"
        big.write_text(
            "compartment = a 1" + "0" * 307 + " 1.0 1.0\n"
            "compartment = b 1" + "0" * 307 + " 1.0 1.0\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "mix", "--scenario", str(big))
        assert code == 1
        assert out == ""
        assert err == "error: entropy overflows a float at N = 2e+307 particles\n"
        code, out, err = run(
            capsys, "entropy", "--N", "1" + "0" * 308, "--T", "1", "--V", "1"
        )
        assert code == 1
        assert out == ""
        assert err == "error: entropy overflows a float at N = 1e+308 particles\n"

    def test_si_units_scale_work(self, capsys, monkeypatch):
        monkeypatch.setenv("MIXENT_KB", "si")
        code, out, _ = run(
            capsys, "mix", "--scenario", str(SCENARIO_DIR / "distinct_half.scenario")
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert row["units"] == "J/K"
        assert float(row["delta_S"]) == pytest.approx(
            1000 * LN2 * KB_SI, rel=1e-9
        )


class TestSweepOverlap:
    def test_three_point_sweep(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-overlap",
            "--scenario", str(SCENARIO_DIR / "distinct_half.scenario"),
            "--points", "3",
        )
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["overlap"]) for r in rows] == [0.0, 0.5, 1.0]
        deltas = [float(r["delta_S"]) for r in rows]
        assert deltas[0] == pytest.approx(1000 * LN2, abs=1e-6)
        assert deltas[1] == pytest.approx(0.75 * 1000 * LN2, abs=1e-6)
        assert deltas[2] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_101_points(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-overlap",
            "--scenario", str(SCENARIO_DIR / "distinct_half.scenario"),
            "--points", "101",
        )
        assert code == 0
        deltas = [float(r["delta_S"]) for r in parse_csv(out)]
        assert len(deltas) == 101
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep-overlap",
            "--scenario", str(SCENARIO_DIR / "distinct_half.scenario"),
            "--points", "2", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 2
        assert data[0]["overlap"] == 0.0
        assert data[1]["overlap"] == 1.0

    def test_grid_replaces_unequal_overlaps(self, capsys, tmp_path):
        path = tmp_path / "unequal.scenario"
        path.write_text(UNEQUAL_OVERLAPS, encoding="utf-8")
        code, out, err = run(capsys, "mix", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert "must all agree" in err
        code, out, err = run(
            capsys, "sweep-overlap", "--scenario", str(path), "--points", "3"
        )
        assert (code, err) == (0, "")
        rows = parse_csv(out)
        assert [float(r["overlap"]) for r in rows] == [0.0, 0.5, 1.0]
        assert float(rows[0]["delta_S"]) == pytest.approx(30 * math.log(3), rel=1e-11)
        assert float(rows[2]["delta_S"]) == 0.0

    def test_too_few_points_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "sweep-overlap",
            "--scenario", str(SCENARIO_DIR / "distinct_half.scenario"),
            "--points", "1",
        )
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = (
            "sweep-overlap",
            "--scenario", str(SCENARIO_DIR / "partial_overlap.scenario"),
            "--points", "11",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


# (file name, id line, the id a report row carries): an id with a comma and
# quotes, and a file-stem id with a line break
QUOTED_IDS = {
    "comma-and-quotes": ("quoted.scenario", 'id = a,b "c"\n', 'a,b "c"'),
    "line-break": ("two\nlines.scenario", "", "two\nlines"),
}


@pytest.mark.parametrize("name, id_line, id_", QUOTED_IDS.values(), ids=QUOTED_IDS)
@pytest.mark.parametrize(
    "argv", [("mix",), ("sweep-overlap", "--points", "3")], ids=["mix", "sweep"]
)
def test_csv_quotes_an_id_that_needs_it(capsys, tmp_path, argv, name, id_line, id_):
    path = tmp_path / name
    path.write_text(
        id_line + "compartment = a 10 0.5 1.0\ncompartment = b 10 0.5 1.0\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, *argv, "--scenario", str(path))
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert len(header) == 10
    assert len(rows) == (1 if argv == ("mix",) else 3)
    assert [len(row) for row in rows] == [10] * len(rows)
    assert [row[0] for row in rows] == [id_] * len(rows)


class TestOracleCheck:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--max-n", "3")
        assert code == 0
        assert "all identities verified: 20 cases" in out
        assert "FAIL" not in out

    def test_mutation_caught(self, capsys, monkeypatch):
        original = mixent.combinatorics.multiplicity_distinguishable

        def corrupted(occ, degs, **kwargs):
            true_count = original(occ, degs, **kwargs)
            return Count.from_int(true_count.value + 1)

        monkeypatch.setattr(
            mixent.combinatorics, "multiplicity_distinguishable", corrupted
        )
        code, out, _ = run(capsys, "oracle-check", "--max-n", "2")
        assert code == 1
        assert "FAIL" in out
        assert "enumerated" in out

    def test_negative_max_n_exit_2(self, capsys):
        code, _, err = run(capsys, "oracle-check", "--max-n", "-1")
        assert code == 2

    @pytest.mark.parametrize("max_n", range(10))
    def test_stdout_lines(self, capsys, max_n):
        lines = [
            f"ok N={N} cells=({','.join(map(str, cells))}) 3 identities"
            for cells in FIXED_CELL_SUITE
            for N in range(max_n + 1)
        ]
        lines.append(f"all identities verified: {len(lines)} cases")
        code, out, err = run(capsys, "oracle-check", "--max-n", str(max_n))
        assert (code, out, err) == (0, "\n".join(lines) + "\n", "")


class TestTopLevel:
    def test_no_subcommand_exit_2(self, capsys):
        code = main([])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage" in captured.err.lower()

    @pytest.mark.parametrize("kb", [None, "bogus"])
    @pytest.mark.parametrize(
        "line",
        [
            # argument rules once checked by hand after parsing
            "count multiplicity --occ 2,x --deg 1,1",
            "entropy --N 10 --T 1 --levels 0:x",
            "count multiplicity 2 1",
            "count multiplicity --occ 2,1",
            "count binomial 3 2 --occ 1",
            "count binomial 3",
            "entropy --N 10 --T 1 --V 1 --levels 0:1",
            "entropy --N 10 --T 1",
            "sweep-overlap --scenario x --points 1",
            "oracle-check --max-n -1",
            # argparse's own
            "",
            "frobnicate",
            "count frobnicate 1 2",
            "entropy --N 10 --T 1 --V 1 --model anyons",
            "mix --scenario x --format xml",
            "count binomial x 2",
            "oracle-check --max-n y",
            "oracle-check --verbose",
            # the one rule the entropy handler checks, before MIXENT_KB
            "entropy --N 10 --T 1 --levels 0:1,1:2 --constant 5",
        ],
    )
    def test_usage_errors_return_2(self, capsys, monkeypatch, kb, line):
        if kb is None:
            monkeypatch.delenv("MIXENT_KB", raising=False)
        else:
            monkeypatch.setenv("MIXENT_KB", kb)
        code, out, err = run(capsys, *line.split())
        assert (code, out) == (2, "")
        assert err.startswith("usage error: mixent") and err.count("\n") == 1

    def test_help_still_exits(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: mixent count")


class TestOneParserPerProcess:
    # count, mix, a usage error and entropy, in that order
    ARGVS = (
        ("count", "binomial", "12", "5"),
        ("mix", "--scenario", str(SCENARIO_DIR / "distinct_full.scenario")),
        ("count", "frobnicate", "1", "2"),
        ("entropy", "--N", "100", "--T", "1.0", "--V", "2.0"),
    )

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_back_to_back_calls_match_fresh_processes(self, capsys, monkeypatch):
        monkeypatch.delenv("MIXENT_KB", raising=False)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        alone = [
            subprocess.run(
                [sys.executable, "-m", "mixent.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            for argv in self.ARGVS
        ]
        together = [run(capsys, *argv) for argv in self.ARGVS]
        assert together == [(p.returncode, p.stdout, p.stderr) for p in alone]
        assert [code for code, _, _ in together] == [0, 0, 2, 0]
