"""Command-line interface: flags, formats, exit codes, output bytes.

JSON and CSV output must equal the rendering of the library object computed
in the same process, byte for byte.
"""
from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cantor_measures
from cantor_measures import (
    DEPTH_CAP,
    DepthOverflow,
    cdf_table,
    check_decay,
    check_lipschitz,
    exact_moments,
    grid_csv,
    monic_basis_general,
    parse_weights,
    shifted_moments,
)
from cantor_measures import cli
from cantor_measures.cli import run
from cantor_measures.fast import fast_moments, mgf_eval, shifted_fast_moments
from conftest import child_env
from oracles import parse_argv


def tiny_last(digits: int) -> str:
    """Two weights whose last, ``10**-digits``, is far below 1 as a float."""
    return f"{10**digits - 1}/{10**digits},1/{10**digits}"


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
            # Long weights parse in chunks under the int/str digit limit.
            (("cdf", "--weights", "0." + "1" * 5000 + ",1", "--depth", "2"), 1),
            (("decay", *TERNARY, "--m", "0"), 1),
            # --eps without --mode fast used to be accepted and never read.
            (("moments", *TERNARY, "--m", "2", "--eps", "nan"), 2),
            (("moments", *TERNARY, "--m", "2", "--mode", "exact", "--eps", "1e-9"), 2),
            (("shifted-moments", *TERNARY, "--m", "2", "--eps", "1e-9"), 2),
            (("moments", "--weights=-" + "1" * 5000 + "/3,1", "--m", "2"), 1),
            # Weights past the int/str digit limit used to print a traceback
            # from the error message, and exponent notation built 10**exponent.
            (("cdf", "--weights", "1" + "0" * 4400 + ",1", "--depth", "2"), 1),
            (("lipschitz", "--weights", "1/2,1/2", "--weights-b", "1/1" + "0" * 4400 + ",1",
              "--depth", "2"), 1),
            (("moments", "--weights", "1e5000,1", "--m", "2"), 1),
            # --grid-points with JSON output used to be accepted and never read.
            (("legendre", *TERNARY, "--degree", "2", "--format", "json",
              "--grid-points", "5"), 2),
            # Tables past N**k = DEPTH_CAP are a domain error.
            (("cdf", "--weights", "1/2,1/2", "--depth", "23"), 1),
            # 2**20000 used to print a traceback from the error message.
            (("cdf", "--weights", "1/2,1/2", "--depth", "20000"), 1),
            # The weights alone decide the decay regime: no threshold flag.
            (("decay", *TERNARY, "--m", "10", "--threshold", "0.4"), 2),
            # A dash-led value after its flag used to exit 2 ("expected one
            # argument") where its "=" form exits 1; a missing value still exits 2.
            (("moments", "--weights", "-1/3,4/3", "--m", "2"), 1),
            (("lipschitz", "--weights", "1/2,1/2", "--weights-b", "-1/2,3/2",
              "--depth", "2"), 1),
            (("mgf", *TERNARY, "--s", "-inf"), 1),
            (("moments", *TERNARY, "--m", "4", *FAST, "-1e-9"), 1),
            (("moments", "--weights", "--m", "2"), 2),
            # A last weight that rounds to 0.0 used to raise ZeroDivisionError
            # in decay and in the grid's normalization; one near 1e-300 made
            # m**gamma overflow.
            (("decay", "--weights", tiny_last(400), "--m", "4"), 1),
            (("decay", "--weights", tiny_last(300), "--m", "4"), 1),
            (("legendre", "--weights", tiny_last(400), "--degree", "2",
              "--grid-points", "3"), 1),
            # Past the index cap the fast path used to build the arrays, and
            # --m 10000000000 printed a MemoryError traceback.
            (("moments", *TERNARY, "--m", str(DEPTH_CAP + 1), *FAST, "1e-4"), 1),
            (("shifted-moments", *TERNARY, "--m", str(DEPTH_CAP + 1), *FAST, "1e-4"), 1),
            # argparse read an abbreviation as the flag it starts, and the
            # last of two equal flags; either is now a usage error.
            (("cdf", *TERNARY, "--dep", "3"), 2),
            (("moments", *TERNARY, "--m", "2", "--mod", "exact"), 2),
            (("moments", *TERNARY, "--m", "2", "--m", "3"), 2),
            (("lipschitz", *TERNARY, "--weights-b", "1/2,1/2", "--depth", "1",
              "--weights=1/2,1/2"), 2),
            ((), 2),
            (("--weights", "1/2,1/2", "moments", "--m", "2"), 2),
            (("moments", *TERNARY, "--m", "2", "3"), 2),
            (("moments", *TERNARY, "--m", "2", "--output"), 2),
            (("moments", *TERNARY, "--m", "2", "--output", "--format", "csv"), 2),
            # Weights and numbers are ASCII, without "_": int(), float() and
            # the weights' "\d" read each of these as a number and exited 0.
            (("moments", "--weights", "\uff11/\uff12,\u0661/\u0662", "--m", "2"), 1),
            (("moments", *TERNARY, "--m", "1_0"), 2),
            (("moments", *TERNARY, "--m", "\uff13"), 2),
            (("moments", *TERNARY, "--m", "2", *FAST, "\uff10.\uff11"), 2),
            (("mgf", *TERNARY, "--s", "1_0.5"), 2),
        ],
    )
    def test_malformed_argv(self, capsys, default_int_str_limit, argv, expected):
        code, out, err = invoke(capsys, *argv)
        assert code in (0, 1, 2)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("moments", *TERNARY, "--m", "-1"),
             "moments --m: invalid value '-1', expected int >= 0"),
            (("moments", *TERNARY, "--m", "2", "--mode", "slow"),
             "moments --mode: invalid value 'slow', expected exact|fast"),
            (("mgf", *TERNARY, "--s", "x"), "mgf --s: invalid value 'x', expected float"),
            (("cdf", *TERNARY), "cdf --depth: required"),
            (("cdf", *TERNARY, "--dep", "3"), "cdf: unknown argument '--dep'"),
            (("cdf", *TERNARY, "--depth", "3", "--depth=4"), "cdf: repeated argument '--depth=4'"),
            (("moments", "--weights", "--m", "2"), "moments --weights: expected a value"),
            (("moments", *TERNARY, "--m", "2", "--eps", "1e-9"),
             "moments --eps goes with --mode fast, and only with it"),
        ],
    )
    def test_usage_error_names_command_and_flag(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,command",
        [
            (("--help",), None),
            (("-h", "moments"), None),
            (("moments", "--help"), "moments"),
            (("cdf", *TERNARY, "--depth", "3", "-h"), "cdf"),
            (("lipschitz", "-h", "--bogus"), "lipschitz"),
        ],
    )
    def test_help_computes_nothing(self, capsys, monkeypatch, argv, command):
        # Help exits 0 before any weight is parsed or any command runs.
        monkeypatch.setattr(cli, "parse_weights", None)
        monkeypatch.setattr(cli, "_COMMANDS", {})
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: cantor-measures {command or 'COMMAND'} --flag VALUE")
        if command is None:
            assert all(f"\n  {name} " in out for name in cli._FLAGS)
        else:
            assert all(f"\n  {flag} " in out for flag in {**cli._COMMON, **cli._FLAGS[command][1]})

    def test_grid_points_help_names_the_default(self):
        # The help writes the default out, so that it imports no legendre.
        from cantor_measures.legendre import GRID_POINTS

        assert f"(default {GRID_POINTS})" in cli._usage("legendre")

    def test_long_weight_fails_fast(self, capsys, default_int_str_limit):
        # Parsing the 400,001-digit weight alone used to take 6.6 s.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "cdf", "--weights", "1" + "0" * 400_000 + ",1",
                                "--depth", "2")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_grid_past_the_cap_fails_fast(self, capsys):
        # 10**12 points used to build the x list until memory ran out.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "legendre", "--weights", "1/2,1/2", "--degree", "2",
                                "--grid-points", "1000000000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,call",
        [
            (("moments", *TERNARY, "--m", str(DEPTH_CAP + 1), *FAST, "1e-4"),
             lambda w: fast_moments(w, DEPTH_CAP + 1, 1e-4)),
            (("shifted-moments", *TERNARY, "--m", str(DEPTH_CAP + 1), *FAST, "1e-4"),
             lambda w: shifted_fast_moments(w, DEPTH_CAP + 1, 1e-4)),
            (("cdf", *TERNARY, "--depth", "15"), lambda w: cdf_table(w, 15)),
            (("legendre", *TERNARY, "--degree", "2", "--grid-points", str(DEPTH_CAP)),
             lambda w: grid_csv(monic_basis_general(w, 2), DEPTH_CAP)),
        ],
    )
    def test_every_cap_is_one_check(self, capsys, argv, call):
        # The table, index and grid caps used to be three checks in three
        # wordings, two of them OutOfRange; now one check raises DepthOverflow.
        with pytest.raises(DepthOverflow, match=f"exceeds the cap {DEPTH_CAP}$"):
            call(parse_weights("1/2,0,1/2"))
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.endswith(f"exceeds the cap {DEPTH_CAP}\n")

    def test_depth_cap_environment_ignored(self, capsys, monkeypatch):
        # CANTOR_DEPTH_CAP used to override the table cap; it is read no more.
        argv = ("cdf", *TERNARY, "--depth", "2")
        expected = invoke(capsys, *argv)
        monkeypatch.setenv("CANTOR_DEPTH_CAP", "2")
        assert invoke(capsys, *argv) == expected
        assert expected[0] == 0


class TestInfiniteBounds:
    """Bounds past n = 170 are inf: ``inf`` in CSV, ``Infinity`` in JSON."""

    ARGV = ("moments", "--weights", "1/2,0,1/2", "--m", "173", "--mode", "fast",
            "--eps", "1e-10")

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, *self.ARGV, "--format", "csv")
        assert code == 0
        assert out.splitlines()[-3:] == ["171,0,inf", "172,0,inf", "173,0,inf"]

    def test_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(capsys, *self.ARGV, "--format", "json")
        assert code == 0
        assert out == fast_moments(ternary, 173, 1e-10).to_json()
        assert json.loads(out)["bounds"][171:] == [float("inf")] * 3
        assert out.count("Infinity") == 3


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

    def test_exact_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "5", "--format", "json",
        )
        assert code == 0
        assert out == exact_moments(ternary, 5).to_json()
        data = json.loads(out)
        assert data["moments"][4] == "87/320"
        assert data["weights"] == ["1/2", "0/1", "1/2"]

    def test_fast_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "moments", "--weights", "1/2,0,1/2", "--m", "6",
            "--mode", "fast", "--eps", "1e-9", "--format", "json",
        )
        assert code == 0
        assert out == fast_moments(ternary, 6, 1e-9).to_json()
        data = json.loads(out)
        assert data["moments"][1] == 0.5
        assert data["depth"] >= 1

    def test_shifted_exact(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "shifted-moments", "--weights", "1/2,0,1/2", "--m", "4",
            "--format", "json",
        )
        assert code == 0
        assert out == shifted_moments(ternary, 4).to_json()
        data = json.loads(out)
        assert data["kind"] == "shifted"
        assert data["moments"] == ["1/1", "0/1", "1/8", "0/1", "7/320"]

    def test_shifted_fast(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "shifted-moments", "--weights", "1/2,0,1/2", "--m", "4",
            "--mode", "fast", "--eps", "1e-9", "--format", "json",
        )
        assert code == 0
        assert out == shifted_fast_moments(ternary, 4, 1e-9).to_json()
        assert json.loads(out)["moments"][2] == pytest.approx(0.125, abs=1e-9)


class TestCdfCommand:
    def test_figure_grid_row_count(self, capsys):
        code, out, _ = invoke(
            capsys, "cdf", "--weights", "1/2,0,1/2", "--depth", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,F"
        assert len(lines) - 1 == 3**6 + 1 == 730

    def test_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(
            capsys, "cdf", "--weights", "1/2,0,1/2", "--depth", "3", "--format", "json"
        )
        assert code == 0
        assert out == cdf_table(ternary, 3).to_json()
        data = json.loads(out)
        assert data["depth"] == 3 and len(data["points"]) == 3**3 + 1
        assert data["points"][-1] == ["1/1", "1/1"]


class TestLegendreCommand:
    def test_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "legendre", "--weights", "1/2,0,1/2", "--degree", "3", "--format", "json",
        )
        assert code == 0
        assert out == monic_basis_general(ternary, 3).to_json()
        data = json.loads(out)
        assert data["degree"] == 3
        assert data["polys"][2] == ["1/8", "-1/1", "1/1"]

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

    def test_grid_csv_default(self, capsys, ternary):
        code, out, _ = invoke(capsys, "legendre", "--weights", "1/2,0,1/2", "--degree", "2")
        assert code == 0
        assert out == grid_csv(monic_basis_general(ternary, 2))

    def test_general_method_on_asymmetric(self, capsys):
        code, out, _ = invoke(
            capsys,
            "legendre", "--weights", "2/3,1/3", "--degree", "1", "--format", "json",
        )
        assert code == 0
        assert out == monic_basis_general(parse_weights("2/3,1/3"), 1).to_json()
        assert json.loads(out)["polys"][1] == ["-1/3", "1/1"]


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

    def test_json_round_trip(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "mgf", "--weights", "1/2,0,1/2", "--s", "1.0", "--depth", "30",
            "--format", "json",
        )
        assert code == 0
        value = mgf_eval(ternary, 1.0, 30)
        assert out == json.dumps({"s": 1.0, "depth": 30, "value": value})
        assert value == pytest.approx(1.7532792046, rel=1e-9)


class TestDecayCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = invoke(
            capsys,
            "decay", "--weights", "1/2,1/2,0", "--m", "16", "--format", "json",
        )
        assert code == 0
        w = parse_weights("1/2,1/2,0")
        assert out == check_decay(w, 16).to_json()
        data = json.loads(out)
        assert data["regime"] == "exponential" and "gamma" not in data
        assert data["violations"] == []

    def test_csv_table(self, capsys):
        code, out, _ = invoke(
            capsys, "decay", "--weights", "1/2,0,1/2", "--m", "8"
        )
        assert code == 0
        assert out == check_decay(parse_weights("1/2,0,1/2"), 8).to_csv()
        lines = out.strip().split("\n")
        assert lines[0] == "regime,gamma,witness_constant,max_m_checked,ok"
        assert lines[1].startswith("polynomial,")
        assert lines[1].endswith(",True")


class TestLipschitzCommand:
    def test_json_round_trip(self, capsys, ternary, lebesgue3):
        code, out, _ = invoke(
            capsys,
            "lipschitz", "--weights", "1/2,0,1/2", "--weights-b", "1/3,1/3,1/3",
            "--depth", "1", "--format", "json",
        )
        assert code == 0
        assert out == check_lipschitz(ternary, lebesgue3, 1).to_json()
        data = json.loads(out)
        assert data["distance"] == "1/6"
        assert data["ok"] is True

    def test_csv(self, capsys, ternary):
        code, out, _ = invoke(
            capsys,
            "lipschitz", "--weights", "1/2,0,1/2", "--weights-b", "5/12,1/6,5/12",
            "--depth", "2",
        )
        assert code == 0
        assert out == check_lipschitz(ternary, parse_weights("5/12,1/6,5/12"), 2).to_csv()
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

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_output(self, capsys, tmp_path, missing_dir):
        # A missing parent directory, or a path that is a directory, used to
        # raise out of run() with a traceback.
        target = tmp_path / "missing" / "out.csv" if missing_dir else tmp_path
        code, out, err = invoke(
            capsys, "moments", "--weights", "1/2,1/2", "--m", "3",
            "--output", str(target),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                       OSError(28, "No space left on device")])
    def test_unwritable_stdout(self, capsys, monkeypatch, error):
        # A failed write to stdout used to raise out of run() with a traceback.
        class Failing(io.StringIO):
            def write(self, text):
                raise error

        monkeypatch.setattr(sys, "stdout", Failing())
        code = run(["moments", "--weights", "1/2,0,1/2", "--m", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write stdout: {error.strerror}\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_stdout_to_full_device(self, unbuffered):
        # With a buffered stdout the rest of the output used to fail a second
        # time in the flush at exit, which printed more and exited 120.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cantor_measures", "moments",
                 "--weights", "1/2,0,1/2", "--m", "4"],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env={**child_env(), "PYTHONUNBUFFERED": unbuffered},
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write stdout: ")
        assert proc.stderr.count("\n") == 1

    def test_dash_writes_to_stdout(self, capsys, tmp_path, monkeypatch):
        # "--output -" used to write a file named "-" and print nothing.
        monkeypatch.chdir(tmp_path)
        argv = ["moments", "--weights", "1/2,1/2", "--m", "2"]
        assert invoke(capsys, *argv, "--output", "-") == invoke(capsys, *argv)
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "legendre", "--weights", "1/2,0,1/2", "--degree", "4",
            "--format", "json",
        ]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        assert first == second

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cantor_measures", "moments",
             "--weights", "1/2,0,1/2", "--m", "4"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("4,87,320")


FOUR_BRANCH = ("--weights", "1/5,3/10,1/10,2/5")


#: Requests and the sha256 of their stdout.
GOLDEN = [
    (("moments", *FOUR_BRANCH, "--m", "133"),
     "a91bf38ed9343fd888d7ceb2514dc1c4a0b800507820bb88d7ad33aae12886ba"),
    (("moments", *FOUR_BRANCH, "--m", "133", "--format", "json"),
     "3c3e96b38940492a003ccc2eb9b04f2546f290573f0c98cee68b55bd295c22f7"),
    (("shifted-moments", "--weights", "1/5,1/10,2/5,1/10,1/5", "--m", "100"),
     "9b7ea521427236563bbeb6cdc8a2ed84ceb966dc65a36bfd95f87362ef4b7171"),
    (("decay", "--weights", "2/7,1/7,3/7,1/7", "--m", "120"),
     "c0d08bfb0aa6751a54352b3e9341e06e1315820465f1a65e55db9764b9d69d35"),
    (("legendre", *TERNARY, "--degree", "18"),
     "c55eb772b7048f67c261cff2f5b9a64f99e01550cc293bbabf09fbde5edd2be4"),
    (("legendre", *FOUR_BRANCH, "--degree", "18", "--format", "json"),
     "3f453698db7d51c0c1aaa5ff74ac72b69a48da33016531d57ba482b0a693587a"),
    (("cdf", *FOUR_BRANCH, "--depth", "5", "--format", "json"),
     "5eab7084b5a0c42b2b6cbe919f64d21de71eb2434640dbe5e7e879b9db01eda8"),
    (("lipschitz", *FOUR_BRANCH, "--weights-b", "1/4,1/4,1/4,1/4", "--depth", "5",
      "--format", "json"),
     "2a2a57c0c126f9b24e0baac762807ef4c28aed075c8a0506b82072a8161e5416"),
    (("decay", "--weights", "2/7,1/7,3/7,1/7", "--m", "120", "--format", "json"),
     "5ef0169e5b78b5cd913989c12b426f60b039fa2fd9ab022e45ee9e137d1a8f54"),
    (("shifted-moments", "--weights", "1/5,1/10,2/5,1/10,1/5", "--m", "100",
      "--format", "json"),
     "41b23fe3406679795a5e5a9fd30335ec73593e3388aeae3ad01fc933dc58906a"),
    (("cdf", *TERNARY, "--depth", "8"),
     "e1282eb7f4829ccd9ad96f55e4c4d00adc29475dab9100b2d3039fce9128db9d"),
    (("cdf", "--weights", "1/6,1/12,1/4,1/12,1/3,1/12", "--depth", "4", "--format", "json"),
     "9f055cba66cdf178b775385b70a3ed309592dbe77fe9573d6e1afea12fbdd07f"),
    (("cdf", "--weights", "5/11,6/11", "--depth", "12"),
     "5ce86c431be6ed044508a9881108397069ec8f19412b49464bc6b9b23151f3dc"),
    (("mgf", *TERNARY, "--s", "1.0", "--depth", "30"),
     "6c57c047b7fd8fef6199194e1e3761592792eba6e70f1e54288a60cee7c77f75"),
    (("mgf", *TERNARY, "--s", "1.0", "--depth", "30", "--format", "json"),
     "d0877fbdd6163fe64ca32515c865507ea114b5b1e2489f6a7488fb60d4251182"),
    (("legendre", *FOUR_BRANCH, "--degree", "8", "--grid-points", "57"),
     "c752173eb9f558fc0e1d7c1ec7192576ca9dd9c5ee39fe8d840e107946817bff"),
    # Denominators whose cofactor is too large for the decimal route.
    (("moments", "--weights", "1/2,0,1/2", "--m", "300"),
     "b036ae14c0d1fcb60b4b91606b1d87c97d2a4fd90847b6009228219fecca1f7d"),
    # A palindromic vector: the stride-2 kernel and its chain.
    (("shifted-moments", "--weights", "1/3,1/9,1/9,1/9,1/3", "--m", "200", "--format", "json"),
     "70e464eb8017c616e2aa23f8bb65a8612211f4d1ba5ddc245e44ba7e84555d67"),
    # Decay past the benchmark's sizes, in both regimes.
    (("decay", "--weights", "1/2,1/2,0", "--m", "256", "--format", "json"),
     "7ea4ba2c50dc31b7f2b8e9e55f2b62508fe66b1aa06c09cdd6e6f3502b6c340a"),
    (("decay", "--weights", "1/3,1/9,2/9,1/3", "--m", "256"),
     "a0b86d549141928cb321b5bdbcd383debde9456f8d04832d1a2f87d838f3b507"),
    # F's gcds from the digit structure: prime A with an interior zero weight.
    (("cdf", "--weights", "1/5,0,4/5", "--depth", "8"),
     "eb7ba255235fc4001578fb46869289893b72d780bc2e3470911ca7c1697389b0"),
    # A weight that shares a prime with A: one gcd per row.
    (("cdf", "--weights", "1/4,1/2,1/4", "--depth", "7", "--format", "json"),
     "21b6dacf72f938c0adf33bf112caa9b1f1a1e9dbd6804082b40367c3eb452633"),
]


class TestGoldenOutput:
    """Outputs pinned byte for byte by the sha256 of their stdout.

    The digests were computed before the power-sum kernel replaced the
    per-branch recurrence, the last three cdf digests before tables
    rendered in blocks, and the float ``mgf`` rows while ``cli.py`` still
    built that text.  The two ``legendre`` grid rows are those of the
    three-term recurrence, which replaced float monomial coefficients that
    were off by 3.9e-3 and 2.3e-11.  The last two cdf digests were computed
    before F's gcds came from the digit structure.  Any change to a byte
    fails here.
    """

    @pytest.mark.parametrize("argv,digest", GOLDEN)
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_after_usage_and_domain_errors(self, capsys):
        # Errors on earlier calls must not change what a later call prints.
        assert invoke(capsys, "moments", *TERNARY, "--m", "two")[0] == 2
        assert invoke(capsys, "moments", "--weights", "1/2,1/3", "--m", "2")[0] == 1
        argv, digest = GOLDEN[0]
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def capture(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def _values(*items: str):
    return st.sampled_from(items)


def _mostly(good, bad):
    """``good`` for five of six integer draws, else ``bad``: most argv parse."""
    return st.integers(0, 5).flatmap(lambda i: bad if i == 5 else good)


_BAD_SIZES = _values("-3", "", "1/0", "nan", "1e400", "two", "1_0", "\uff13", "\u0663", "\u0967_2")


def _sizes(low: int, high: int):
    return _mostly(st.integers(low, high).map(str), _BAD_SIZES)


def _floats(*good: str):
    return _mostly(_values(*good), _values("", "1/0", "nan", "inf", "-inf", "1e400",
                                           "1_0.5", "1e-1_0", "\uff10.\uff11", "\u0661e-\u0669"))


_WEIGHTS = _mostly(
    _values("1/2,0,1/2", "1/3,1/3,1/3", "2/3,1/3", "1/2,1/2,0",
            "1/5,1/10,2/5,1/10,1/5", "0,1", tiny_last(300), tiny_last(400)),
    _values("1/2,1/3", "", "1/0,1", "nan", "-3", "1e400", "abc", "\uff11/\uff12,\u0661/\u0662",
            "1/2,1_0/20"),
)
#: Depths up to 6 build small tables; 25 is past the cap for every base.
_DEPTH = _mostly(_values(*map(str, range(7)), "25"), _BAD_SIZES)
#: Flags of each command and their values.  Size flags are always given, so
#: no default above the small sizes runs; any other flag may be left out.
#: ``--grid-points`` may be left out, since a JSON ``legendre`` rejects it.
_FLAGS = {
    "moments": {"--m": _sizes(0, 40), "--mode": _mostly(_values("exact", "fast"), st.just("slow")),
                "--eps": _floats("1e-9", "1e-3", "0.5", "0", "-3", "1e-300")},
    "shifted-moments": {"--m": _sizes(0, 40), "--mode": _values("exact", "fast"),
                        "--eps": _floats("1e-12", "1e-6")},
    "cdf": {"--depth": _DEPTH},
    "legendre": {"--degree": _sizes(0, 6), "--grid-points": _sizes(1, 50)},
    "mgf": {"--s": _floats("0", "0.4", "-3", "40", "1e-300"), "--depth": _DEPTH},
    "decay": {"--m": _sizes(0, 40)},
    "lipschitz": {"--weights-b": _WEIGHTS, "--depth": _DEPTH},
}
_SIZE_FLAGS = {"--m", "--depth", "--degree"}


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(_mostly(_values(*_FLAGS), _values("frobnicate", "moment", "")))
    flags = {"--weights": _WEIGHTS, "--format": _mostly(_values("csv", "json"), st.just("xml")),
             **_FLAGS.get(command, {})}
    argv = [command]
    for flag, values in flags.items():
        value = draw(values if flag in _SIZE_FLAGS else _mostly(values, st.none()))
        if value is not None:
            argv += [flag, value]
    if draw(_mostly(st.just(False), st.just(True))):
        argv.append("--bogus")
    return argv


class TestRunContract:
    """Any argv ends in exit 0, 1 or 2 without a traceback, and reruns agree."""

    @given(argv=cli_argv())
    @settings(max_examples=150)
    def test_generated_argv(self, argv):
        first = capture(argv)
        second = capture(argv)
        code, _, err = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert second == first


def parsed(parse, argv) -> object:
    """What ``parse(argv)`` gives: the flag values (as reprs) and weights, or an exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, weights = parse(argv)
        except SystemExit as exc:
            return exc.code
        except cantor_measures.CantorMeasureError:
            return 1
    return {name: repr(value) for name, value in vars(args).items()}, weights


class TestFlagTable:
    """The flag table reads argv as the argparse parser it replaced did."""

    @given(argv=cli_argv())
    @settings(max_examples=300)
    def test_parity_with_argparse(self, argv):
        # Same values where argparse accepted argv, exit 2 where it exited 2,
        # and the same domain error (exit 1) where the weights are bad.
        assert parsed(cli._parse, argv) == parsed(parse_argv, argv)

    @pytest.mark.parametrize("argv", [
        ("moments", "--weights", "-1/3,4/3", "--m", "2"),
        ("mgf", *TERNARY, "--s", "-inf", "--depth=3", "--format=json", "--output", "-"),
        ("moments", *TERNARY, "--m", "4", *FAST, "-1e-9"),
        ("legendre", *TERNARY, "--degree", "0", "--grid-points", "2"),
        ("lipschitz", *TERNARY, "--weights-b=1/3,1/3,1/3", "--depth", "1"),
    ])
    def test_dash_led_and_equals_forms(self, argv):
        # Both parsers bind these; argparse only after the dash-led rewrite.
        assert parsed(cli._parse, argv) == parsed(parse_argv, argv) != 2


#: Runs ``run(argv)`` in a fresh interpreter, then reports on stderr whether
#: numpy was imported.
_CHILD = (
    "import sys\n"
    "from cantor_measures.cli import run\n"
    "code = run(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print('numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_child(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", _CHILD, *argv],
                          capture_output=True, text=True, env=child_env())


#: Runs ``run(argv)`` in a fresh interpreter, then reports on stderr the
#: package modules and numpy that it loaded.
_LOADED = (
    "import sys\n"
    "from cantor_measures.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "print(sorted(m for m in sys.modules if m.startswith('cantor_measures') or m == 'numpy'),\n"
    "      file=sys.stderr)\n"
    "sys.exit(code)\n"
)

#: The package modules that ``import cantor_measures.cli`` loads: what parsing needs.
_PARSING = {"cantor_measures", "cantor_measures._frozen", "cantor_measures.cli",
            "cantor_measures.errors", "cantor_measures.rational", "cantor_measures.weights"}


#: Prints the modules among ``argv[2:]`` that ``import <argv[1]>`` newly loads.
_NEW_MODULES = (
    "import importlib, sys\n"
    "before = set(sys.modules)\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(sorted(set(sys.argv[2:]) & (set(sys.modules) - before)))\n"
)

#: Modules the package does not need at import: ``dataclasses`` alone
#: brings ``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``argparse``
#: brings ``gettext``, ``locale`` and ``shutil``.
_HEAVY = ("dataclasses", "inspect", "typing", "pathlib", "argparse", "gettext", "locale")


class TestImportIsolation:
    """What a fresh interpreter imports, one process per case.

    numpy only for the float renderers, and never a module the package does
    not need.
    """

    def test_import_cli(self):
        proc = run_child()
        assert (proc.returncode, proc.stderr) == (0, "False\n")

    @pytest.mark.parametrize(
        "argv,numpy_loaded",
        [
            (("moments", *TERNARY, "--m", "6", "--mode", "exact"), False),
            (("shifted-moments", *TERNARY, "--m", "6", "--mode", "exact"), False),
            (("cdf", *TERNARY, "--depth", "3"), False),
            (("legendre", *TERNARY, "--degree", "3", "--grid-points", "5"), False),
            (("decay", *TERNARY, "--m", "10"), False),
            (("lipschitz", *TERNARY, "--weights-b", "1/3,1/3,1/3", "--depth", "2"), False),
            (("mgf", *TERNARY, "--s", "1.5"), False),
            (("moments", *TERNARY, "--m", "12", *FAST, "1e-10"), True),
            (("shifted-moments", *TERNARY, "--m", "12", *FAST, "1e-10", "--format", "json"), True),
        ],
    )
    def test_request(self, argv, numpy_loaded):
        proc = run_child(*argv)
        code, out, err = capture(argv)
        assert (proc.returncode, proc.stderr) == (code, f"{err}{numpy_loaded}\n")
        assert proc.stdout == out

    @pytest.mark.parametrize(
        "argv,modules",
        [
            (("moments", *TERNARY, "--m", "6"), {"moments"}),
            (("shifted-moments", *TERNARY, "--m", "6", "--format", "json"), {"moments"}),
            (("cdf", *TERNARY, "--depth", "3"), {"measure"}),
            (("legendre", *TERNARY, "--degree", "3", "--grid-points", "5"),
             {"legendre", "moments"}),
            (("mgf", *TERNARY, "--s", "1.5"), {"analysis"}),
            (("decay", *TERNARY, "--m", "10"), {"analysis", "moments"}),
            (("lipschitz", *TERNARY, "--weights-b", "1/3,1/3,1/3", "--depth", "2"),
             {"analysis", "measure"}),
            (("moments", *TERNARY, "--m", "12", *FAST, "1e-10"), {"fast", "analysis", "numpy"}),
        ],
    )
    def test_command_loads_only_its_modules(self, argv, modules):
        # Besides what parsing needs, a command loads only the modules it runs.
        proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                              capture_output=True, text=True, env=child_env())
        loaded = {"numpy" if m == "numpy" else f"cantor_measures.{m}" for m in modules}
        assert (proc.returncode, proc.stderr) == (0, f"{sorted(loaded | _PARSING)}\n")

    def test_cli_loads_no_heavy_module(self):
        # -S: site preloads nothing, so every new module is the package's.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _NEW_MODULES, "cantor_measures.cli", *_HEAVY],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_cli_loads_no_json(self):
        # Only the to_json renderers use json, and they import it themselves.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _NEW_MODULES, "cantor_measures.cli", "json"],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    def test_fast_loads_no_dataclasses(self):
        # numpy loads inspect, typing and pathlib itself, not dataclasses.
        proc = subprocess.run(
            [sys.executable, "-c", "import numpy\n" + _NEW_MODULES, "cantor_measures.fast",
             "dataclasses"],
            capture_output=True, text=True, env=child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestPackageExports:
    def test_all_lists_exactly_the_root_bindings(self):
        # The root binds a name on first access, so resolve every name first.
        for name in cantor_measures.__all__:
            getattr(cantor_measures, name)
        bound = {
            name for name, value in vars(cantor_measures).items()
            if not name.startswith("_") and not inspect.ismodule(value)
            and name != "annotations"
        }
        assert set(cantor_measures.__all__) == bound

    def test_float_api_is_not_at_root(self):
        # The root is the exact API; the float names live in .fast only.
        assert not hasattr(cantor_measures, "fast_moments")

    def test_all_names_resolve_and_are_listed(self):
        listed = dir(cantor_measures)
        for name in cantor_measures.__all__:
            assert getattr(cantor_measures, name) is not None
            assert name in listed

    def test_moved_names_keep_their_old_paths(self):
        # weights.py and analysis.py define these; measure and fast re-export them.
        from cantor_measures import analysis, fast, measure, weights

        for name in ("DEPTH_CAP", "WeightVector", "parse_weights", "_check_cap",
                     "_integer_weights"):
            assert getattr(measure, name) is getattr(weights, name) is vars(weights)[name]
        assert (fast.mgf_eval, fast.MgfValue) == (analysis.mgf_eval, analysis.MgfValue)
        assert cantor_measures.WeightVector.__module__ == "cantor_measures.weights"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cantor_measures.no_such_name

    def test_benchmark_tracer_names_resolve(self, ternary):
        # The traced benchmark wraps these names; a removal that breaks it
        # fails here first.  The tracer module is loaded read-only by path.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
        spec = importlib.util.spec_from_file_location("trace_layers", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        modules = {m: importlib.import_module(f"cantor_measures.{m}") for m in tracer.MODULES}
        for module, attr, _, _, _ in tracer.FUNCTIONS:
            assert callable(getattr(modules[module], attr)), (module, attr)
        for module, cls, _ in tracer.RENDERERS:
            assert {"to_csv", "to_json"} & set(vars(getattr(modules[module], cls))), cls
        # The counters read these attributes of the results.
        counts = collections.Counter()
        tracer._moment_indices(counts, "m", (), {}, exact_moments(ternary, 4))
        tracer._table_entries(counts, "t", (), {}, cdf_table(ternary, 2))
        tracer._log2_depth(counts, "d", (), {}, fast_moments(ternary, 4, 1e-6))
        assert counts["m"] == 5 and counts["t"] == 10 and counts["d"] >= 0

    def test_type_hints_resolve(self):
        # fast's names include those it re-exports (mgf_eval, MgfValue), and
        # each class is checked through its methods.
        fast = cantor_measures.fast
        objects = [getattr(cantor_measures, name) for name in cantor_measures.__all__]
        objects += [obj for name, obj in vars(fast).items()
                    if not name.startswith("_")
                    and getattr(obj, "__module__", "").startswith("cantor_measures.")]
        objects += [f for cls in objects if inspect.isclass(cls) for f in vars(cls).values()]
        assert {fast.mgf_eval, fast.MgfValue, fast.MgfValue.__init__} <= set(objects)
        for obj in objects:
            if inspect.isfunction(obj):
                typing.get_type_hints(obj)
