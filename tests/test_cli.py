"""Command-line interface: flags, formats, exit codes, output bytes.

JSON and CSV output must equal the rendering of the library object computed
in the same process, byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import subprocess
import sys
import time
import typing

import pytest
from hypothesis import given, settings, strategies as st

import cantor_measures
from cantor_measures import (
    cdf_table,
    check_decay,
    check_lipschitz,
    exact_moments,
    fast_moments,
    grid_csv,
    mgf_eval,
    monic_basis_general,
    parse_weights,
    shifted_fast_moments,
    shifted_moments,
)
from cantor_measures.cli import run
from conftest import child_env


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
        ],
    )
    def test_malformed_argv(self, capsys, default_int_str_limit, argv, expected):
        code, out, err = invoke(capsys, *argv)
        assert code in (0, 1, 2)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1

    def test_long_weight_fails_fast(self, capsys, default_int_str_limit):
        # Parsing the 400,001-digit weight alone used to take 6.6 s.
        start = time.perf_counter()
        code, out, err = invoke(capsys, "cdf", "--weights", "1" + "0" * 400_000 + ",1",
                                "--depth", "2")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

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
        assert out == check_decay(exact_moments(w, 16)).to_json()
        data = json.loads(out)
        assert data["regime"] == "exponential" and "gamma" not in data
        assert data["violations"] == []

    def test_csv_table(self, capsys):
        code, out, _ = invoke(
            capsys, "decay", "--weights", "1/2,0,1/2", "--m", "8"
        )
        assert code == 0
        assert out == check_decay(exact_moments(parse_weights("1/2,0,1/2"), 8)).to_csv()
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


#: Exact requests and the sha256 of their stdout.
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
     "5833c7d3ffd7b171564e91c79414879eb3485a280d3dabbfe8d4b1316f32a2b8"),
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
]


class TestGoldenOutput:
    """Exact outputs pinned byte for byte by the sha256 of their stdout.

    The digests were computed before the power-sum kernel replaced the
    per-branch recurrence, and the last three cdf digests before tables
    rendered in blocks; any change to an exact byte fails here.
    """

    @pytest.mark.parametrize("argv,digest", GOLDEN)
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_after_usage_and_domain_errors(self, capsys):
        # run() shares one parser across calls: errors on earlier calls must
        # not change what a later call prints.
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


_BAD_SIZES = _values("-3", "", "1/0", "nan", "1e400", "two")


def _sizes(low: int, high: int):
    return _mostly(st.integers(low, high).map(str), _BAD_SIZES)


def _floats(*good: str):
    return _mostly(_values(*good), _values("", "1/0", "nan", "inf", "-inf", "1e400"))


_WEIGHTS = _mostly(
    _values("1/2,0,1/2", "1/3,1/3,1/3", "2/3,1/3", "1/2,1/2,0",
            "1/5,1/10,2/5,1/10,1/5", "0,1"),
    _values("1/2,1/3", "", "1/0,1", "nan", "-3", "1e400", "abc"),
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


class TestImportIsolation:
    """numpy is imported only by the float renderers, one process per case."""

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
            (("mgf", *TERNARY, "--s", "1.5"), True),
            (("moments", *TERNARY, "--m", "12", *FAST, "1e-10"), True),
            (("shifted-moments", *TERNARY, "--m", "12", *FAST, "1e-10", "--format", "json"), True),
        ],
    )
    def test_request(self, argv, numpy_loaded):
        proc = run_child(*argv)
        code, out, err = capture(argv)
        assert (proc.returncode, proc.stderr) == (code, f"{err}{numpy_loaded}\n")
        assert proc.stdout == out


class TestPackageExports:
    def test_fast_names_resolve_to_fast_module(self):
        from cantor_measures import fast, fast_moments

        assert cantor_measures.fast_moments is fast.fast_moments is fast_moments

    def test_all_names_resolve_and_are_listed(self):
        listed = dir(cantor_measures)
        for name in cantor_measures.__all__:
            assert getattr(cantor_measures, name) is not None
            assert name in listed

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cantor_measures.no_such_name

    def test_type_hints_resolve(self):
        for name in cantor_measures.__all__:
            obj = getattr(cantor_measures, name)
            if inspect.isfunction(obj):
                typing.get_type_hints(obj)
