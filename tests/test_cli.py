import io
import math

import numpy as np
import pytest

from qduality import cli
from qduality import circuit as ct
from qduality.cli import CoincidenceRecord

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
    ])
    def test_accepted_forms(self, text, value):
        assert cli.parse_angle(text) == pytest.approx(value, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "pi/", "2x", "x/pi", "pi/0", "3/0.0"])
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

    def test_hvcheck_bound_mode(self, capsys, tmp_path):
        settings = tmp_path / "settings.csv"
        settings.write_text(cli.SETTINGS_HEADER + "\n0.0,1.0\n")
        code = cli.main(["hvcheck", "--settings", str(settings),
                         "--mode", "chsh-bound"])
        out = capsys.readouterr().out
        assert code == 0
        assert "LOCAL_BOUND=2.0000" in out
        assert "QUANTUM_S=2.8284" in out

    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["simulate", "--theta1", "0"]) == 1
        assert cli.main(["simulate", "--theta1", "bogus", "--theta2", "0",
                         "--phi", "0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("angle", ["pi/0", "3pi/x"])
    def test_bad_angle_is_usage_error(self, capsys, angle):
        code = cli.main(["simulate", "--theta1", angle, "--theta2", "0",
                         "--phi", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"cannot parse angle {angle!r}" in captured.err

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

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("not,a,valid,row\n")
        assert cli.main(["analyze", "--from", str(path)]) == 2
        capsys.readouterr()
