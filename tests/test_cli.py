"""Command-line interface: flags, formats, exit codes, round-trips."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest

from cantor_measures import (
    CdfTable,
    DecayReport,
    FastResult,
    LipschitzCheck,
    MomentSequence,
    OrthoBasis,
)
from cantor_measures.cli import run

F = Fraction


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = invoke(
            capsys, "moments", "--weights", "1/2,0,1/2", "--m", "2"
        )
        assert code == 0 and out

    def test_usage_error_missing_eps(self, capsys):
        code, _, err = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "100", "--mode", "fast",
        )
        assert code == 2
        assert "--eps" in err

    def test_usage_error_unknown_command(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate", "--weights", "1/2,1/2")
        assert code == 2

    def test_domain_error_bad_simplex(self, capsys):
        code, _, err = invoke(capsys, "moments", "--weights", "1/2,1/3", "--m", "2")
        assert code == 1
        assert "sum" in err

    def test_domain_error_non_palindromic_shifted(self, capsys):
        code, _, err = invoke(
            capsys, "shifted-moments", "--weights", "2/3,1/3", "--m", "4"
        )
        assert code == 1
        assert "palindromic" in err


TERNARY = ("--weights", "1/2,0,1/2")
FAST = ("--mode", "fast", "--eps")


class TestInputContract:
    """Malformed flags end in exit 1 (domain) or 2 (usage), never a traceback."""

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("moments", *TERNARY, "--m", "-1"), 2),
            (("shifted-moments", *TERNARY, "--m", "-1"), 2),
            (("decay", *TERNARY, "--m", "-3"), 2),
            (("moments", *TERNARY, "--m", "two"), 2),
            (("legendre", *TERNARY, "--degree", "-1"), 2),
            (("legendre", *TERNARY, "--degree", "2", "--grid-points", "1"), 2),
            (("legendre", "--weights", "2/3,1/3", "--degree", "2",
              "--method", "symmetric"), 2),
            (("cdf", *TERNARY, "--depth", "0"), 2),
            (("lipschitz", *TERNARY, "--weights-b", "1/3,1/3,1/3", "--depth", "0"), 2),
            (("mgf", *TERNARY, "--s", "1", "--depth", "0"), 2),
            (("mgf", *TERNARY, "--s", "1e6"), 1),
            (("mgf", *TERNARY, "--s", "inf"), 1),
            (("mgf", *TERNARY, "--s", "nan"), 1),
            (("mgf", *TERNARY, "--s=-inf"), 1),
            (("moments", *TERNARY, "--m", "4", *FAST, "nan"), 1),
            (("moments", *TERNARY, "--m", "4", *FAST, "inf"), 1),
            (("shifted-moments", *TERNARY, "--m", "4", "--mode", "fast",
              "--eps=-inf"), 1),
            (("moments", "--weights", "1/2,,1/2", "--m", "2"), 1),
            (("moments", "--weights", "abc", "--m", "2"), 1),
            (("moments", "--weights", "1", "--m", "2"), 1),
            (("moments", "--weights", "1/0,1", "--m", "2"), 1),
            (("legendre", "--weights", "0,1,0", "--degree", "2"), 1),
            # An empty --weights-b used to reach check_lipschitz as None.
            (("lipschitz", *TERNARY, "--weights-b", "", "--depth", "1"), 1),
        ],
    )
    def test_malformed_argv(self, capsys, argv, expected):
        code, out, err = invoke(capsys, *argv)
        assert code in (0, 1, 2)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value,argv",
        [
            ("many", ("cdf", "--weights", "1/2,1/2", "--depth", "2")),
            ("1", ("lipschitz", *TERNARY, "--weights-b", "1/3,1/3,1/3", "--depth", "1")),
        ],
    )
    def test_malformed_depth_cap(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("CANTOR_DEPTH_CAP", value)
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: CANTOR_DEPTH_CAP") and err.count("\n") == 1


class TestInfiniteBounds:
    """Bounds past n = 170 are inf: ``inf`` in CSV, ``Infinity`` in JSON."""

    ARGV = ("moments", "--weights", "1/2,0,1/2", "--m", "173", "--mode", "fast",
            "--eps", "1e-10")

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGV, "--format", "csv")
        assert code == 0
        assert out.splitlines()[-3:] == ["171,0,inf", "172,0,inf", "173,0,inf"]

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGV, "--format", "json")
        assert code == 0
        assert json.loads(out)["bounds"][171:] == [float("inf")] * 3
        assert out.count("Infinity") == 3
        result = FastResult.from_json(out)
        assert list(result.certified_bound[171:]) == [float("inf")] * 3
        assert FastResult.from_json(result.to_json()) == result


class TestMomentsCommand:
    def test_exact_csv_last_row(self, capsys):
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "4",
            "--mode", "exact", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,numerator,denominator"
        assert lines[-1] == "4,87,320"

    def test_exact_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "5", "--format", "json",
        )
        assert code == 0
        ms = MomentSequence.from_json(out)
        assert ms.values[4] == F(87, 320)
        assert str(ms.weights) == "1/2,0/1,1/2"

    def test_fast_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "6",
            "--mode", "fast", "--eps", "1e-9", "--format", "json",
        )
        assert code == 0
        result = FastResult.from_json(out)
        assert result.moments[1] == 0.5
        assert result.depth_used >= 1

    def test_shifted_exact(self, capsys):
        code, out, _ = invoke(
            capsys,
            "shifted-moments", "--weights", "1/2,0,1/2", "--m", "4",
            "--format", "json",
        )
        assert code == 0
        ms = MomentSequence.from_json(out)
        assert ms.kind == "shifted"
        assert ms.values == (F(1), F(0), F(1, 8), F(0), F(7, 320))

    def test_shifted_fast(self, capsys):
        code, out, _ = invoke(
            capsys,
            "shifted-moments", "--weights", "1/2,0,1/2", "--m", "4",
            "--mode", "fast", "--eps", "1e-9", "--format", "json",
        )
        assert code == 0
        result = FastResult.from_json(out)
        assert result.moments[2] == pytest.approx(0.125, abs=1e-9)


class TestCdfCommand:
    def test_figure_grid_row_count(self, capsys):
        code, out, _ = invoke(
            capsys, "cdf", "--weights", "1/2,0,1/2", "--depth", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,F"
        assert len(lines) - 1 == 3**6 + 1 == 730

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys, "cdf", "--weights", "1/2,0,1/2", "--depth", "3", "--format", "json"
        )
        assert code == 0
        table = CdfTable.from_json(out)
        assert table.depth == 3 and table.n_base == 3
        assert table.points[-1] == (F(1), F(1))


class TestLegendreCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "legendre", "--weights", "1/2,0,1/2", "--degree", "3", "--format", "json",
        )
        assert code == 0
        basis = OrthoBasis.from_json(out)
        assert basis.degree == 3
        assert basis.polys[2] == (F(1, 8), F(-1), F(1))

    def test_grid_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "legendre", "--weights", "1/3,1/3,1/3", "--degree", "2",
            "--grid-points", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,p0,p1,p2"
        assert len(lines) == 6

    def test_general_method_on_asymmetric(self, capsys):
        code, out, _ = invoke(
            capsys,
            "legendre", "--weights", "2/3,1/3", "--degree", "1", "--format", "json",
        )
        assert code == 0
        basis = OrthoBasis.from_json(out)
        assert basis.polys[1] == (F(-1, 3), F(1))


class TestMgfCommand:
    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "mgf", "--weights", "0,1", "--s", "1.0", "--depth", "40"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,depth,value"
        value = float(lines[1].split(",")[2])
        assert value == pytest.approx(2.718281828, rel=1e-8)

    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "mgf", "--weights", "1/2,0,1/2", "--s", "1.0", "--depth", "30",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["depth"] == 30
        assert data["value"] == pytest.approx(1.7532792046, rel=1e-9)


class TestDecayCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "decay", "--weights", "1/2,1/2,0", "--m", "16", "--format", "json",
        )
        assert code == 0
        report = DecayReport.from_json(out)
        assert report.regime == "exponential"
        assert report.violations == ()

    def test_csv_table(self, capsys):
        code, out, _ = invoke(
            capsys, "decay", "--weights", "1/2,0,1/2", "--m", "8",
            "--threshold", "0.4",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "regime,gamma,witness_constant,max_m_checked,ok"
        assert lines[1].startswith("polynomial,")
        assert lines[1].endswith(",True")


class TestLipschitzCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lipschitz", "--weights", "1/2,0,1/2", "--weights-b", "1/3,1/3,1/3",
            "--depth", "1", "--format", "json",
        )
        assert code == 0
        result = LipschitzCheck.from_json(out)
        assert result.distance == F(1, 6)
        assert result.ok

    def test_csv(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lipschitz", "--weights", "1/2,0,1/2", "--weights-b", "5/12,1/6,5/12",
            "--depth", "2",
        )
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",True")


class TestOutputHandling:
    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "3",
            "--output", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text(encoding="utf-8").strip().endswith("3,5,16")

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "legendre", "--weights", "1/2,0,1/2", "--degree", "4",
            "--format", "json",
        ]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "cantor_measures", "moments",
             "--weights", "1/2,0,1/2", "--m", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("4,87,320")
