import contextlib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qduality
from qduality import cli
from qduality import circuit as ct
from qduality.cli import CoincidenceRecord

from conftest import REPO_ROOT

SQRT2 = math.sqrt(2.0)

PI_8 = math.pi / 8
PI3_8 = 3 * math.pi / 8
PI_4 = math.pi / 4
PHI = 3 * math.pi / 2


class TestParseAngle:
    @pytest.mark.parametrize("text,value", [
        ("3pi/2", 3 * math.pi / 2),
        ("pi/8", math.pi / 8),
        ("-pi/4", -math.pi / 4),
        ("pi", math.pi),
        ("2pi", 2 * math.pi),
        ("0.5", 0.5),
        ("1/3", 1.0 / 3.0),
        ("0", 0.0),
        (".5", 0.5),
        ("-.5", -0.5),
        ("3.", 3.0),
        ("1e-3", 1e-3),
        ("-1E+2", -100.0),
        ("2.5e-1pi/.5", math.pi / 2),
        ("pi/4.", math.pi / 4),
        ("1/2e1", 0.05),
    ])
    def test_accepted_forms(self, text, value):
        assert cli.parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi/", "2x", "x/pi", "pi/0", "3/0.0", ".",
                                      "1e", "e3", "nan", "inf", "-inf", "3pi/x", "1e400",
                                      "-1e400", "pi/1e400", "1e308pi", "1e308/1e-308",
                                      "pi/1e-400"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            cli.parse_angle(text)


class TestIngest:
    def test_golden_rows(self, table_a1_path):
        records = cli.ingest_counts(table_a1_path)
        assert len(records) == 4
        by_setting = {
            (round(r.theta1, 6), round(r.theta2, 6)): r for r in records
        }
        first = by_setting[(0.0, round(PI_8, 6))]
        assert (first.n_pp, first.n_pm, first.n_mp, first.n_mm) == \
            (577, 2164, 2302, 542)
        last = by_setting[(round(PI_4, 6), round(PI3_8, 6))]
        assert (last.n_pp, last.n_pm, last.n_mp, last.n_mm) == \
            (402, 2524, 1911, 904)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert cli.ingest_counts(path) == []

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(cli.COUNTS_HEADER + "\n0.0,0.1,0.2,5,5,5\n")
        with pytest.raises(cli.ParseError, match="bad.csv:2"):
            cli.ingest_counts(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(cli.COUNTS_HEADER + "\n0.0,0.1,0.2,5,-1,5,5\n")
        with pytest.raises(cli.ParseError, match="neg.csv:2"):
            cli.ingest_counts(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text(cli.COUNTS_HEADER + "\n0.0,0.1,abc,5,1,5,5\n")
        with pytest.raises(cli.ParseError, match="text.csv:2"):
            cli.ingest_counts(path)

    def test_round_trip(self, tmp_path):
        records = [
            CoincidenceRecord(0.0, PI_8, PHI, 10, 20, 30, 40),
            CoincidenceRecord(PI_4, PI3_8, PHI, 1, 2, 3, 4),
        ]
        buf = io.StringIO()
        cli.emit_counts(records, buf)
        path = tmp_path / "counts.csv"
        path.write_text(buf.getvalue())
        assert cli.ingest_counts(path) == records


class TestCorrelationWithError:
    def test_first_golden_value(self):
        record = CoincidenceRecord(0.0, PI_8, PHI, 577, 2164, 2302, 542)
        result = cli.correlation_with_error(record)
        assert result.E == pytest.approx(-0.5993, abs=5e-4)
        assert result.sigma == pytest.approx(
            math.sqrt((1 - result.E**2) / 5585), abs=1e-15)

    def test_third_golden_value(self):
        record = CoincidenceRecord(PI_4, PI_8, PHI, 2162, 658, 692, 1949)
        result = cli.correlation_with_error(record)
        assert result.E == pytest.approx(0.5056, abs=5e-4)

    def test_perfect_correlation(self):
        record = CoincidenceRecord(0.0, 0.0, 0.0, 100, 0, 0, 100)
        result = cli.correlation_with_error(record)
        assert result.E == pytest.approx(1.0, abs=1e-15)
        assert result.sigma == pytest.approx(0.0, abs=1e-15)

    def test_zero_total_rejected(self):
        record = CoincidenceRecord(0.0, 0.0, 0.0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            cli.correlation_with_error(record)


class TestChshFromRecords:
    def test_golden_records(self, table_a1_path):
        records = cli.ingest_counts(table_a1_path)
        s, sigma = cli.chsh_from_records(records)
        assert s == pytest.approx(2.1829, abs=1e-3)
        expected_sigma = math.sqrt(sum(
            cli.correlation_with_error(r).sigma ** 2 for r in records))
        assert sigma == pytest.approx(expected_sigma, abs=1e-15)

    def test_synthetic_ideal_counts_converge(self):
        # sampling-convergence oracle: huge-count multinomial draws from the
        # ideal distributions drive S to the analytic maximum
        total = 2_000_000
        records = []
        for i, (theta1, theta2) in enumerate(
            (t1, t2) for t1 in (0.0, PI_4) for t2 in (PI_8, PI3_8)
        ):
            dist = ct.coincidence_probabilities(
                ct.ExperimentConfig(phi=PHI, theta1=theta1, theta2=theta2))
            counts = ct.sample_counts(dist, total, seed=(99, i))
            records.append(CoincidenceRecord(theta1, theta2, PHI, *counts))
        s, _ = cli.chsh_from_records(records)
        assert s == pytest.approx(2 * SQRT2, abs=5e-3)

    def test_uniform_counts(self):
        records = [
            CoincidenceRecord(t1, t2, PHI, 250, 250, 250, 250)
            for t1 in (0.0, PI_4) for t2 in (PI_8, PI3_8)
        ]
        s, sigma = cli.chsh_from_records(records)
        assert s == pytest.approx(0.0, abs=1e-15)
        assert sigma == pytest.approx(2.0 / math.sqrt(1000), abs=1e-15)

    def test_wrong_multiplicities_rejected(self):
        records = [
            CoincidenceRecord(0.0, PI_8, PHI, 1, 1, 1, 1),
            CoincidenceRecord(0.0, PI_8, PHI, 1, 1, 1, 1),
            CoincidenceRecord(PI_4, PI_8, PHI, 1, 1, 1, 1),
            CoincidenceRecord(PI_4, PI3_8, PHI, 1, 1, 1, 1),
        ]
        with pytest.raises(ValueError):
            cli.chsh_from_records(records)


class TestCommands:
    def test_simulate_prints_correlation(self, capsys):
        code = cli.main([
            "simulate", "--theta1", "0", "--theta2", "pi/8", "--phi", "3pi/2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "E=-0.7071" in out

    def test_simulate_with_shots_is_deterministic(self, capsys):
        argv = ["simulate", "--theta1", "0", "--theta2", "pi/8",
                "--phi", "3pi/2", "--shots", "5585", "--seed", "7"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "counts=" in first

    def test_simulate_rejects_negative_seed(self, capsys):
        code = cli.main(["simulate", "--theta1", "0", "--theta2", "0",
                         "--phi", "0", "--shots", "10", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--seed" in captured.err

    def test_chsh_from_golden_file(self, capsys, table_a1_path):
        code = cli.main(["chsh", "--from", str(table_a1_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "S=2.1829" in out
        assert "sigma_S=" in out

    def test_chsh_model_mode(self, capsys):
        code = cli.main(["chsh", "--phi", "3pi/2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "S=2.8284" in out

    def test_surface_csv(self, capsys):
        code = cli.main(["surface", "--theta1", "0", "--visibility", "1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.SURFACE_HEADER
        assert len(lines) == 82
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert min(values) == pytest.approx(-1.0, abs=1e-9)
        assert max(values) == pytest.approx(1.0, abs=1e-9)

    def test_surface_stdout_is_pinned(self, capsys):
        # the README's 9x9 surface, byte for byte
        assert cli.main(["surface", "--theta1", "0", "--visibility", "0.86"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "4bb59a76921f09aea74be2797bea68fc99adacdeb56e5747ea8dedeea7e01161"

    @pytest.mark.parametrize("block", [4096, 33, 5, 1])
    def test_surface_is_pinned_across_phase_blocks(self, capsys, monkeypatch, block):
        # a 17x33 surface, byte for byte, however its phases are blocked
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        assert cli.main(["surface", "--theta1", "pi/4", "--grid", "17x33",
                         "--visibility", "0.9"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a6e619bdbca4780af3068f4211ba1a183eed9b2f7f06e6b46091337088344b51"

    def test_surface_file_identical_across_runs(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["surface", "--theta1", "pi/4", "--visibility", "0.86"]
        assert cli.main(base + ["--out", str(out1)]) == 0
        assert cli.main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_hom_csv(self, tmp_path):
        out = tmp_path / "dip.csv"
        code = cli.main([
            "hom", "--transmission", "1/3", "--x0", "11.63", "--sigma", "0.3",
            "--from", "10.5", "--to", "12.8", "--steps", "24",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.DIP_HEADER
        assert len(lines) == 26  # header + 24 points + contrast comment
        assert lines[-1].startswith("# contrast=")

    def test_analyze_reproduces_golden_correlations(self, capsys, table_a1_path):
        code = cli.main(["analyze", "--from", str(table_a1_path)])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.ANALYZE_HEADER
        values = [float(line.split(",")[3]) for line in lines[1:]]
        expected = [-0.5993, -0.5330, 0.5056, -0.5450]
        for got, want in zip(values, expected):
            assert got == pytest.approx(want, abs=5e-4)

    def test_analyze_empty_file(self, capsys, tmp_path):
        path = tmp_path / "none.csv"
        path.write_text("")
        assert cli.main(["analyze", "--from", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == cli.ANALYZE_HEADER

    def test_hvcheck_infeasible_exit_code(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(
            cli.SETTINGS_HEADER + f"\n0.0,{math.pi / 2!r}\n")
        code = cli.main(["hvcheck", "--settings", str(settings)])
        out = capsys.readouterr().out
        assert code == 3
        assert "INFEASIBLE" in out
        assert "residual=" in out

    def test_hvcheck_feasible_exit_code(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(
            cli.SETTINGS_HEADER + f"\n{math.pi / 4!r},{math.pi / 2!r}\n")
        code = cli.main(["hvcheck", "--settings", str(settings)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FEASIBLE" in out
        assert "witness:" in out

    def test_hvcheck_feasible_witness_lines(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(
            cli.SETTINGS_HEADER + f"\n{-math.pi / 4!r},{math.pi / 4!r}\n")
        assert cli.main(["hvcheck", "--settings", str(settings)]) == 0
        assert capsys.readouterr().out == (
            "FEASIBLE residual=0.000e+00\n"
            "witness: 0.176777 particle +\n"
            "witness: 0.323223 particle -\n"
            "witness: 0.146447 wave +\n"
            "witness: 0.353553 wave -\n")

    @pytest.mark.parametrize("row", ["0.1,1e400", "nan,1.0"])
    def test_hvcheck_non_finite_setting_names_line(self, capsys, tmp_path, row):
        settings = tmp_path / "settings.csv"
        settings.write_text(cli.SETTINGS_HEADER + f"\n{row}\n")
        code = cli.main(["hvcheck", "--settings", str(settings)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "settings.csv:2: settings must be finite" in captured.err

    def test_hvcheck_duplicate_setting_names_both_lines(self, capsys, tmp_path):
        # the same floats written two ways are one setting
        settings = tmp_path / "f.csv"
        settings.write_text(cli.SETTINGS_HEADER + "\n0.5,1.0\n0.25,2.0\n0.50, 1\n")
        code = cli.main(["hvcheck", "--settings", str(settings)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {settings}:4: duplicate setting (first on line 2)\n"

    def test_hvcheck_rejects_one_setting_past_the_cap(self, capsys, tmp_path, monkeypatch):
        from qduality import hv

        def no_solve(*args, **kwargs):
            raise AssertionError("solved past the settings cap")

        monkeypatch.setattr(hv, "quantum_joint", no_solve)
        monkeypatch.setattr(hv, "quantum_joints", no_solve)
        monkeypatch.setattr(hv, "feasibility", no_solve)
        settings = tmp_path / "many.csv"
        settings.write_text(cli.SETTINGS_HEADER + "\n" + "".join(
            f"0.25,{k}\n" for k in range(cli.MAX_SETTINGS + 1)))
        code = cli.main(["hvcheck", "--settings", str(settings)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: {settings}:{cli.MAX_SETTINGS + 2}: "
                                f"more than {cli.MAX_SETTINGS:,} settings\n")
        settings.write_text("".join(f"0.25,{k}\n" for k in range(cli.MAX_SETTINGS)))
        assert len(cli._read_settings(str(settings))) == cli.MAX_SETTINGS

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_analyze_non_finite_angle_names_line(self, capsys, tmp_path, angle):
        path = tmp_path / "f.csv"
        path.write_text(cli.COUNTS_HEADER + f"\n{angle},0.1,0.2,5,1,5,5\n")
        code = cli.main(["analyze", "--from", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "f.csv:2: theta1 must be finite" in captured.err

    def test_hvcheck_bound_mode(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(cli.SETTINGS_HEADER + "\n0.0,1.0\n")
        code = cli.main(["hvcheck", "--settings", str(settings),
                         "--mode", "chsh-bound"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LOCAL_BOUND=2.0000" in out
        assert "QUANTUM_S=2.8284" in out

    def test_hvcheck_bound_mode_needs_its_settings_file(self, capsys, tmp_path):
        # chsh-bound used to print the bounds and exit 0 without reading --settings
        missing = tmp_path / "nonexistent.csv"
        code = cli.main(["hvcheck", "--settings", str(missing), "--mode", "chsh-bound"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(missing) in captured.err

    def test_hvcheck_bound_mode_names_a_bad_line(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(cli.SETTINGS_HEADER + "\n0.0,1.0\n0.1,nan\n")
        code = cli.main(["hvcheck", "--settings", str(settings), "--mode", "chsh-bound"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {settings}:3: settings must be finite\n"

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["simulate", "--theta1", "0"]) == 1
        assert cli.main(["simulate", "--theta1", "bogus", "--theta2", "0",
                         "--phi", "0"]) == 1
        capsys.readouterr()

    def test_decimal_angles_argparse_takes_as_values_are_parsed(self, capsys):
        code = cli.main(["simulate", "--theta1", "-.5", "--theta2", "-1e-3", "--phi", "3."])
        e = ct.correlation(ct.ExperimentConfig(phi=3.0, theta1=-0.5, theta2=-1e-3))
        assert (code, capsys.readouterr().out) == (0, f"E={e:.4f}\n")

    @pytest.mark.parametrize("theta2", ["1e8", "1e300"])
    def test_unresolvable_theta2_is_usage_error(self, capsys, tmp_path, theta2):
        message = f"theta2 = {float(theta2)!r} does not resolve theta2 + pi/2"
        code = cli.main(["simulate", "--theta1", "0", "--theta2", theta2, "--phi", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert message in captured.err
        settings = tmp_path / "settings.csv"
        settings.write_text(cli.SETTINGS_HEADER + f"\n0.1,0.2\n{theta2},0.5\n")
        code = cli.main(["hvcheck", "--settings", str(settings)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert message in captured.err

    def test_large_theta2_that_resolves_runs(self, capsys):
        code = cli.main(["simulate", "--theta1", "0", "--theta2", "1e5", "--phi", "0"])
        e = ct.correlation(ct.ExperimentConfig(phi=0.0, theta2=1e5))
        assert (code, capsys.readouterr().out) == (0, f"E={e:.4f}\n")

    @pytest.mark.parametrize("angle", ["pi/0", "3pi/x", "1e400", "-1e400"])
    def test_bad_angle_is_usage_error(self, capsys, angle):
        code = cli.main(["simulate", "--theta1", angle, "--theta2", "0",
                         "--phi", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"cannot parse angle {angle!r}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--theta1=--"],
        ["surface", "--theta1=--"],
        ["chsh", "--phi=--"],
        ["hom", "--transmission=--", "--from", "1", "--to", "2", "--steps", "3"],
        ["simulate", "--theta1", "0", "--theta2", "0", "--phi", "0", "--shots=--"],
    ])
    def test_explicit_double_dash_value_is_usage_error(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "expected one argument" in captured.err

    @pytest.mark.parametrize("text,value", [
        ("-pi/4", -math.pi / 4),
        ("-3pi/2", -3 * math.pi / 2),
        ("-0.5", -0.5),
    ])
    def test_negative_angle_as_separate_argument(self, text, value):
        args = cli.build_parser().parse_args(
            ["simulate", "--theta1", text, "--theta2", text, "--phi", text])
        assert (args.theta1, args.theta2, args.phi) == (value, value, value)

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_nonpositive_shots_print_nothing(self, capsys, shots):
        code = cli.main(["simulate", "--theta1", "0", "--theta2", "0",
                         "--phi", "0", "--shots", shots])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--shots" in captured.err

    def test_io_error_exit_code(self, capsys):
        assert cli.main(["analyze", "--from", "/nonexistent/file.csv"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [
        ["surface", "--theta1", "0", "--grid", "2x2"],
        ["hom", "--from", "10", "--to", "12", "--steps", "3"],
        ["analyze", "--from", str(REPO_ROOT / "data" / "table_a1.csv")],
    ])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_out_error_names_the_path_asked_for(self, capsys, tmp_path, command, target):
        # a missing directory fails to make the temporary file, a directory
        # as --out fails to replace it; either way it is gone afterwards
        out = str(tmp_path / target)
        assert cli.main(command + ["--out", out]) == 2
        assert capsys.readouterr().err.endswith(f": {out!r}\n")
        assert not list(tmp_path.rglob(".tmp_*"))

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("not,a,valid,row\n")
        assert cli.main(["analyze", "--from", str(path)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra,message", [
        (["--sigma", "nan"], "sigma must be a finite width, got nan"),
        (["--x0", "nan"], "x0 must be a finite position, got nan"),
        (["--x0", "inf"], "x0 must be a finite position, got inf"),
        (["--from", "nan"], "--from and --to must be finite"),
        (["--to", "inf"], "--from and --to must be finite"),
        (["--from", "-1e308", "--to", "1e308"], "--from and --to must be finite"),
    ])
    def test_hom_non_finite_input_is_usage_error(self, capsys, extra, message):
        code = cli.main(["hom", "--from", "0", "--to", "1", "--steps", "3"] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("extra", [
        ["--to", "1e300", "--steps", "2"],
        ["--sigma", "1e-200"],
    ])
    def test_hom_extreme_finite_input_stays_finite(self, capsys, extra):
        code = cli.main(["hom", "--from", "0", "--to", "1", "--steps", "3"] + extra)
        out = capsys.readouterr().out
        assert code == 0
        assert "nan" not in out
        assert out.endswith("# contrast=0.000000\n")

    @pytest.mark.parametrize("argv,message", [
        (["hom", "--from", "0", "--to", "1", "--steps", "1000000000000000"],
         "--steps must be from 2 to 1,000,000"),
        (["surface", "--theta1", "0", "--grid", "100000000x100000000"],
         "more than 1,000,000 points"),
    ])
    def test_output_size_over_the_limit_is_usage_error(self, capsys, argv, message):
        # hom used to die in numpy with _ArrayMemoryError; surface ran on
        # building 10^8 angles per axis until it was killed
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert message in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("grid", ["0x9", "9x0", "-1x9", "9", "9x9x9", "ax9"])
    def test_malformed_grid_is_usage_error(self, capsys, grid):
        code = cli.main(["surface", "--theta1", "0", "--grid", grid])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert f"grid must look like '9x9', got {grid!r}" in captured.err

    def test_output_size_limit_is_inclusive(self):
        assert cli.MAX_POINTS == 1_000_000
        args = cli.build_parser().parse_args(
            ["surface", "--theta1", "0", "--grid", "1000x1000"])
        assert args.grid == (1000, 1000)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["surface", "--theta1", "0", "--grid", "1001x1000"])

    def test_output_size_limit_in_help(self, capsys):
        for command in ("surface", "hom"):
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args([command, "--help"])
            assert "1,000,000" in capsys.readouterr().out


class TestStreamedOutput:
    LINES = ["a,b", "1,2", "# c"]

    @staticmethod
    def failing_lines():
        yield "a,b"
        yield "1,2"
        raise RuntimeError("failed part-way")

    def test_lines_written_with_newlines(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        cli._write_output(iter(self.LINES), str(target))
        assert target.read_bytes() == b"a,b\n1,2\n# c\n"
        cli._write_output(iter(self.LINES), None)
        assert capsys.readouterr().out == "a,b\n1,2\n# c\n"

    def test_lines_that_raise_leave_no_file(self, tmp_path):
        target = tmp_path / "x.csv"
        with pytest.raises(RuntimeError, match="part-way"):
            cli._write_output(self.failing_lines(), str(target))
        assert not target.exists()
        assert not list(tmp_path.glob(".tmp_*"))

    def test_lines_that_raise_keep_the_old_file(self, tmp_path):
        target = tmp_path / "x.csv"
        target.write_text("old\n")
        with pytest.raises(RuntimeError, match="part-way"):
            cli._write_output(self.failing_lines(), str(target))
        assert target.read_text() == "old\n"
        assert not list(tmp_path.glob(".tmp_*"))

    @pytest.mark.parametrize("argv", [
        ["surface", "--theta1", "0", "--grid", "3x4"],
        ["hom", "--from", "10", "--to", "12", "--steps", "5"],
        ["analyze", "--from", str(REPO_ROOT / "data" / "table_a1.csv")],
    ])
    def test_commands_pass_a_generator(self, monkeypatch, argv):
        # no command holds its whole output as one list or string
        seen = []
        monkeypatch.setattr(cli, "_write_output", lambda lines, out: seen.append(lines))
        assert cli.main(argv) == 0
        assert len(seen) == 1 and inspect.isgenerator(seen[0])


def write_bad_inputs(root, table_a1_path) -> dict:
    """Counts and settings files that are well-formed CSV but bad input."""
    table = table_a1_path.read_bytes()
    lines = table.split(b"\n")
    assert lines[6].endswith(b",2162,658,692,1949")
    files = {
        # line 7 is the third data row
        "zero_total.csv": b"\n".join(
            lines[:6] + [lines[6].rsplit(b",", 4)[0] + b",0,0,0,0"] + lines[7:]),
        "one_row.csv": b"\n".join(lines[:5]) + b"\n",
        "bom.csv": b"\xef\xbb\xbf" + table,
        "latin1.csv": (cli.COUNTS_HEADER + "\n# caf\xe9\n0.0,0.1,0.2,5,1,5,5\n").encode("latin-1"),
    }
    paths = {}
    for name, data in files.items():
        paths[name] = root / name
        paths[name].write_bytes(data)
    return paths


@pytest.fixture
def bad_inputs(tmp_path, table_a1_path):
    return write_bad_inputs(tmp_path, table_a1_path)


class TestInputFileErrors:
    """A counts or settings file whose content is bad exits 2 naming path[:line]."""

    @pytest.mark.parametrize("command", ["analyze", "chsh"])
    def test_zero_total_row_names_its_line(self, capsys, bad_inputs, command):
        path = bad_inputs["zero_total.csv"]
        code = cli.main([command, "--from", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}:7: cannot analyze a record with zero total counts\n")

    def test_chsh_wrong_record_count_names_file(self, capsys, bad_inputs):
        path = bad_inputs["one_row.csv"]
        code = cli.main(["chsh", "--from", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: expected exactly 4 records, got 1\n"

    def test_chsh_records_without_two_angles_per_side_name_file(self, capsys, tmp_path,
                                                                 table_a1_path):
        path = tmp_path / "f.csv"
        rows = table_a1_path.read_text().splitlines()
        path.write_text("\n".join(rows[:-1] + ["0.5" + rows[-1][rows[-1].index(","):]]) + "\n")
        code = cli.main(["chsh", "--from", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: {path}: records must cover two theta1 and two theta2 values\n")

    @pytest.mark.parametrize("body, line, message", [
        ("0.5,1.0\n0.1,abc\n", 3, "could not convert string to float: 'abc'"),
        ("", 1, "settings file contains no settings"),
        ("# a comment, and no settings\n\n", 1, "settings file contains no settings"),
    ])
    def test_bad_settings_file_names_its_line(self, capsys, tmp_path, body, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(cli.SETTINGS_HEADER + "\n" + body)
        code = cli.main(["hvcheck", "--settings", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {path}:{line}: {message}\n"

    def test_chsh_duplicate_setting_names_file(self, capsys, tmp_path, table_a1_path):
        path = tmp_path / "f.csv"
        rows = table_a1_path.read_text().splitlines()
        path.write_text("\n".join(rows[:5] + rows[4:5] + rows[6:]) + "\n")  # row 1 twice
        code = cli.main(["chsh", "--from", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: duplicate setting (theta1=0.0, theta2=0.39269908169872414)\n")

    @pytest.mark.parametrize("command", ["analyze", "chsh"])
    def test_bom_counts_file_reads_as_without(self, capsys, bad_inputs, table_a1_path,
                                              command):
        assert cli.main([command, "--from", str(table_a1_path)]) == 0
        plain = capsys.readouterr()
        assert cli.main([command, "--from", str(bad_inputs["bom.csv"])]) == 0
        assert capsys.readouterr() == plain

    def test_bom_before_the_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (cli.COUNTS_HEADER + "\n0.0,0.1,0.2,5,1,5,5\n").encode())
        assert cli.ingest_counts(path) == [CoincidenceRecord(0.0, 0.1, 0.2, 5, 1, 5, 5)]

    def test_bom_settings_file(self, capsys, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(cli.SETTINGS_HEADER + f"\n{-math.pi / 4!r},{math.pi / 4!r}\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert cli.main(["hvcheck", "--settings", str(plain)]) == 0
        expected = capsys.readouterr()
        assert cli.main(["hvcheck", "--settings", str(bom)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("argv", [["analyze", "--from"], ["chsh", "--from"],
                                      ["hvcheck", "--settings"]])
    def test_non_utf8_byte_names_its_line(self, capsys, bad_inputs, argv):
        path = bad_inputs["latin1.csv"]
        code = cli.main(argv + [str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}:2: not UTF-8 text (byte 0xe9)\n"

    def test_non_utf8_byte_past_the_first_read_block(self, tmp_path):
        # the text layer decodes in blocks of several KB; the line stays exact
        path = tmp_path / "f.csv"
        rows = "".join(f"0.0,0.1,0.2,{k},1,5,5\n" for k in range(2000))
        path.write_bytes((cli.COUNTS_HEADER + "\n" + rows).encode() + b"0.0,\xff\n")
        with pytest.raises(cli.ParseError, match=r"f\.csv:2002: not UTF-8 text \(byte 0xff\)"):
            cli.ingest_counts(path)


# what cli.main(argv) may not load in a fresh interpreter, and what it must
_TABLE = str(REPO_ROOT / "data" / "table_a1.csv")
_SETTINGS = str(REPO_ROOT / "perfbench" / "data" / "settings_feasible.csv")
# numpy and the layers on it, and dataclasses with the inspect module it imports
_NO_NUMPY = ("numpy", "qduality.qstate", "qduality.circuit", "qduality.fock", "qduality.hv",
             "dataclasses", "inspect")
LAYER_LOADS = {
    "analyze": (["analyze", "--from", _TABLE], _NO_NUMPY, ()),
    "chsh_from": (["chsh", "--from", _TABLE], _NO_NUMPY, ()),
    "usage_error": (["simulate", "--theta1", "3pi/x", "--theta2", "0", "--phi", "0"],
                    _NO_NUMPY, ()),
    "simulate": (["simulate", "--theta1", "0", "--theta2", "pi/8", "--phi", "3pi/2",
                  "--shots", "10"], ("qduality.fock", "qduality.hv"), ("qduality.circuit",)),
    "surface": (["surface", "--theta1", "0", "--grid", "2x3"],
                ("qduality.fock", "qduality.hv"), ("qduality.circuit",)),
    "chsh_model": (["chsh", "--phi", "3pi/2"], ("qduality.fock", "qduality.hv"),
                   ("qduality.circuit",)),
    "hom": (["hom", "--from", "10", "--to", "12", "--steps", "5"], ("qduality.hv",),
            ("qduality.fock",)),
    "hvcheck": (["hvcheck", "--settings", _SETTINGS], ("qduality.fock",), ("qduality.hv",)),
    "hvcheck_bound": (["hvcheck", "--settings", _SETTINGS, "--mode", "chsh-bound"],
                      ("qduality.fock",), ("qduality.hv", "qduality.circuit")),
}
_LOADED_SCRIPT = """
import json, sys
import qduality
assert "numpy" not in sys.modules, "import qduality loaded numpy"
from qduality import cli
assert "numpy" not in sys.modules, "import qduality.cli loaded numpy"
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("case", sorted(LAYER_LOADS))
def test_command_loads_only_its_layer(case):
    argv, absent, present = LAYER_LOADS[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == (1 if case == "usage_error" else 0), proc.stderr
    assert not set(absent) & set(modules), f"{argv} loaded {set(absent) & set(modules)}"
    assert set(present) <= set(modules)


PACKAGE_ALL = [
    "ExperimentConfig", "GateOp", "NoiseParams", "OutcomeDistribution", "Projector",
    "StateVector", "apply_gate", "bell_state", "chsh", "coincidence_probabilities",
    "controlled_hadamard", "correlation", "correlation_surface", "final_state",
    "initial_state", "outcome_probability", "particle_state", "phase_shifter",
    "sample_counts", "schmidt_coefficients", "wave_state", "waveplate",
]


class TestLazyPackage:
    def test_all_is_unchanged(self):
        assert qduality.__all__ == PACKAGE_ALL

    @pytest.mark.parametrize("name", PACKAGE_ALL)
    def test_reexport_is_the_module_object(self, name):
        obj = getattr(qduality, name)
        assert obj.__module__ in ("qduality.circuit", "qduality.qstate")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert name in dir(qduality)

    def test_star_import(self):
        namespace = {}
        exec("from qduality import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == PACKAGE_ALL
        assert namespace["chsh"] is ct.chsh

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            qduality.no_such_name
        assert not hasattr(qduality, "no_such_name")
        with pytest.raises(ImportError):
            exec("from qduality import no_such_name", {})

    def test_layer_modules_resolve(self):
        assert qduality.circuit is ct
        assert qduality.qstate is importlib.import_module("qduality.qstate")


FUZZ_VOCABULARY = ("0", "-pi/4", "3pi/2", "1/3", "pi/0", "nan", "inf", "1e-200",
                   "1e300", "-1e300", "x", "--")
# subcommand: (required options, optional options)
FUZZ_COMMANDS = {
    "simulate": (("--theta1", "--theta2", "--phi"),
                 ("--delta", "--visibility", "--background", "--shots", "--seed")),
    "surface": (("--theta1",), ("--grid", "--visibility", "--background", "--out")),
    "chsh": ((), ("--phi", "--visibility", "--background", "--from")),
    "hom": (("--from", "--to", "--steps"), ("--transmission", "--x0", "--sigma", "--out")),
    "hvcheck": (("--settings",), ("--mode",)),
    "analyze": (("--from",), ("--out",)),
}
# valid values that keep the work per call small
FUZZ_EXTRA = {
    "--shots": ("3", "100"),
    "--seed": ("7", "-1"),
    "--steps": ("2", "5", "1000001"),
    "--grid": ("1x1", "2x3", "1001x1000"),
    "--mode": ("objectivity", "chsh-bound"),
}
FUZZ_INPUT_FILES = {("chsh", "--from"), ("analyze", "--from"), ("hvcheck", "--settings")}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory, table_a1_path):
    """Input paths (data CSV, settings CSV, bad inputs, missing, directory) and
    --out paths."""
    root = tmp_path_factory.mktemp("fuzz")
    settings = root / "settings.csv"
    settings.write_text(cli.SETTINGS_HEADER + "\n0.0,1.0\n")
    bad = write_bad_inputs(root, table_a1_path)
    inputs = (str(table_a1_path), str(settings), *map(str, bad.values()),
              str(root / "missing.csv"), str(root))
    outputs = (str(root / "out.csv"), str(root / "missing" / "out.csv"), str(root), "--")
    return inputs, outputs


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_paths, data):
    # --out only ever names a path under the fixture's directory, so no
    # example writes into the working tree
    inputs, outputs = fuzz_paths
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    chosen = data.draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [command]
    for option in required + tuple(chosen):
        if option == "--out":
            values = st.sampled_from(outputs)
        elif (command, option) in FUZZ_INPUT_FILES:
            values = st.sampled_from(FUZZ_VOCABULARY + inputs)
        else:  # half the draws from the small valid values, where there are any
            values = st.sampled_from(FUZZ_VOCABULARY)
            if option in FUZZ_EXTRA:
                values = st.sampled_from(FUZZ_EXTRA[option]) | values
        value = data.draw(values)
        if data.draw(st.booleans()):
            argv.append(f"{option}={value}")
        else:
            argv += [option, value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
