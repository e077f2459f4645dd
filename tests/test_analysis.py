"""Moment decay regimes, Lipschitz CDF bound, largest CDF increments."""
from __future__ import annotations

import collections
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantor_measures.moments as moments_module
from cantor_measures import (
    DecayReport,
    FloatOverflow,
    InsufficientMoments,
    MeshMismatch,
    OutOfRange,
    WeightVector,
    cdf_table,
    check_decay,
    check_lipschitz,
    exact_moments,
    parse_weights,
    shifted_moments,
)
from cantor_measures.analysis import _decay_report
from cantor_measures.moments import _moment_enclosure
from cantor_measures.rational import format_float, format_rational, parse_rational

from conftest import oracle_sweep, parts_to_weights, random_weight_vector, weight_vectors_st
from oracles import decay_report, interval_mass

F = Fraction


def enclosure_report(w: WeightVector, m_max: int):
    """``check_decay``'s polynomial report from its fixed-point enclosure alone,
    or None where that leaves a float undecided and the exact kernel takes over."""
    bits = 96 + m_max * w.n_branches.bit_length()
    lows = _moment_enclosure(w, m_max, bits)
    return _decay_report(w, [(lo, lo + m, 2**bits) for m, lo in enumerate(lows)])


class TestCdfIncrements:
    @given(weight_vectors_st(interior=True), st.integers(1, 3))
    @settings(max_examples=30)
    def test_max_increment_is_max_weight_power(self, w, k):
        # The largest depth-k cell mass is exactly (max weight)**k.
        t = cdf_table(w, k)
        values = [f for _, f in t.points]
        max_inc = max(b - a for a, b in zip(values, values[1:]))
        assert max_inc == max(w.weights) ** k
        # And it agrees with the single-digit product at the heaviest branch.
        heaviest = max(range(w.n_branches), key=lambda n: w.weights[n])
        assert max_inc == interval_mass(w, [heaviest] * k)


class TestCheckDecay:
    def test_exponential_regime_exact(self):
        w = parse_weights("1/2,1/2,0")
        report = check_decay(w, 64)
        assert report.regime == "exponential"
        assert report.violations == ()
        assert report.gamma == math.inf
        assert 0 < report.witness_constant <= 1
        assert report.max_m_checked == 64

    def test_ternary_polynomial_regime(self, ternary):
        report = check_decay(ternary, 64)
        assert report.regime == "polynomial"
        assert report.gamma == pytest.approx(math.log(2) / math.log(3), rel=1e-12)
        assert report.violations == ()
        # Infimum of I_m * m**gamma over 1..64 is attained at m = 1: I_1 = 1/2.
        assert report.witness_constant == pytest.approx(0.5, rel=1e-12)

    def test_dirac_at_one_constant_witness(self):
        w = WeightVector([0, 1])
        report = check_decay(w, 16)
        assert report.regime == "polynomial"
        assert report.gamma == 0.0
        assert report.witness_constant == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_dirac_at_zero(self, n):
        # The only raw vector whose moment kernel runs at stride 2.
        report = check_decay(WeightVector([1] + [0] * (n - 1)), 12)
        assert (report.regime, report.gamma, report.witness_constant) == ("exponential", math.inf, 1.0)
        assert (report.max_m_checked, report.violations) == (12, ())

    @pytest.mark.parametrize("weights,m", [("1/2,1/2,0", 384), ("1,0,0", 12), ("1,0", 40)])
    def test_exponential_report_computes_no_moment(self, monkeypatch, weights, m):
        # A zero last weight fixes the report: X <= (N-2)/(N-1) < (N-1)/N.
        w = parse_weights(weights)
        report = check_decay(w, m)
        assert report == DecayReport("exponential", math.inf, 1.0, m, ())

        def kernel(*args):
            raise AssertionError("a moment kernel ran")

        monkeypatch.setattr(moments_module, "_moment_enclosure", kernel)
        monkeypatch.setattr(moments_module, "_self_similar_moments", kernel)
        assert check_decay(w, m) == report

    @given(weight_vectors_st(zero_last=True), st.integers(2, 16))
    @settings(max_examples=30)
    def test_exponential_regime_random(self, w, m_max):
        report = check_decay(w, m_max)
        assert report.regime == "exponential"
        assert report.violations == ()

    @given(weight_vectors_st(palindromic=True))
    @settings(max_examples=30)
    def test_shifted_decay_bound(self, w):
        # |J_m| * 2**m <= 1 exactly, any palindromic weights.
        shifted = shifted_moments(w, 20)
        for m, v in enumerate(shifted.values):
            assert abs(v) * 2**m <= 1

    def test_json_round_trip(self, ternary):
        report = check_decay(ternary, 16)
        assert json.loads(report.to_json()) == {
            "regime": "polynomial", "gamma": report.gamma,
            "witness_constant": report.witness_constant, "max_m_checked": 16,
            "violations": list(report.violations),
        }
        w = parse_weights("1/2,1/2,0")
        report = check_decay(w, 16)
        # No gamma key in the exponential regime, where it is inf.
        assert json.loads(report.to_json()) == {
            "regime": "exponential", "witness_constant": report.witness_constant,
            "max_m_checked": 16, "violations": [],
        }

    @pytest.mark.parametrize("weights,gamma", [("1/2,0,1/2", None), ("1/2,1/2,0", "inf")])
    def test_csv(self, weights, gamma):
        report = check_decay(parse_weights(weights), 16)
        gamma = gamma or format_float(report.gamma)
        assert report.to_csv() == (
            "regime,gamma,witness_constant,max_m_checked,ok\n"
            f"{report.regime},{gamma},{format_float(report.witness_constant)},16,True\n"
        )

    def test_seeded_sweep(self):
        # Equal reports, floats bit for bit, to the check on reduced moments.
        regimes = collections.Counter()
        for w, _, m in oracle_sweep():
            report = check_decay(w, m)
            assert report == decay_report(exact_moments(w, m))
            regimes[report.regime] += 1
        assert min(regimes["exponential"], regimes["polynomial"]) >= 100

    def test_wide_sweep(self):
        # Past the benchmark's sizes: N = 2..6, m to 200, zero interior and
        # trailing weights, simplex vertices; equal reports and equal bytes.
        rng = random.Random(26)
        for i in range(20):  # every (N, kind) pair once
            n, kind = 2 + i % 5, i % 4
            parts = [rng.randint(1, 9) for _ in range(n)]
            if kind == 0:  # a simplex vertex: the Dirac mass at v / (N - 1)
                parts = [0] * n
                parts[i // 4 % n] = 1
            elif kind == 2 and n > 2:  # a zero last weight (with N = 2, a Dirac mass)
                parts[-1] = 0
            elif kind == 3 and n > 2:  # a zero interior weight
                parts[rng.randrange(1, n - 1)] = 0
            w = parts_to_weights(parts)
            m = rng.randint(100, 200) if i % 3 else rng.randint(1, 99)
            report, expected = check_decay(w, m), decay_report(exact_moments(w, m))
            assert report == expected
            assert (report.to_csv(), report.to_json()) == (expected.to_csv(), expected.to_json())
            if report.regime == "polynomial":  # the exponential report reads no enclosure
                assert enclosure_report(w, m) == report

    @pytest.mark.parametrize("weights,m", [("0,1,0", m) for m in range(34, 49)] + [
        # The Dirac mass at 0: I_m = 0 for m >= 1, so lo_m = 0 and lo_m + m
        # round to different doubles whatever b is.
        ("1,0,0", 5), ("1,0", 40), ("1,0,0,0,0", 120),
        # I_1 = 10**-40 is below 2**-b (b = 128): lo_1 = 0.
        pytest.param(f"{1 - F(1, 10**40)},{F(1, 10**40)}", 16, id="tiny-last-weight-16"),
    ])
    def test_exact_fallback(self, weights, m):
        # 0,1,0 is the Dirac mass at 1/2: I_m * (3/2)**m = (3/4)**m, and
        # 3**34 has 54 bits, so (3/4)**34 lies halfway between two doubles.
        # The enclosure left index 34 undecided there, as it does the exact
        # zeros of the Dirac mass at 0; both are exponential and now compute
        # no moment, so only the polynomial row still takes the exact kernel.
        w = parse_weights(weights)
        if w.weights[-1]:
            assert enclosure_report(w, m) is None
        report, expected = check_decay(w, m), decay_report(exact_moments(w, m))
        assert (report.to_csv(), report.to_json()) == (expected.to_csv(), expected.to_json())

    def test_enclosure_invariant(self):
        # lo_m <= I_m * 2**b <= lo_m + m against exact Fractions, at several b.
        rng = random.Random(5)
        for i in range(12):
            w = random_weight_vector(rng, 2 + i % 5, interior=False, zero_last=i % 2 == 0)
            m_max = rng.randint(1, 60)
            moments = exact_moments(w, m_max).values
            for bits in (0, 1, 7, 53, 96 + m_max * w.n_branches.bit_length()):
                lows = _moment_enclosure(w, m_max, bits)
                assert lows[0] == 2**bits
                for m, (lo, value) in enumerate(zip(lows, moments)):
                    assert lo <= value * 2**bits <= lo + m
                if bits == 0:  # too coarse to decide any float past I_0
                    assert all(lo / 2**bits != (lo + m) / 2**bits
                               for m, lo in enumerate(lows) if m)

    def test_error_order(self):
        tiny = WeightVector([1 - F(1, 10**400), F(1, 10**400)])
        for m_max, error in ((-1, OutOfRange), (0, InsufficientMoments), (1, FloatOverflow)):
            with pytest.raises(error):
                check_decay(tiny, m_max)
        # The fixed exponential report comes after both argument errors.
        exponential = parse_weights("1/2,1/2,0")
        with pytest.raises(OutOfRange, match="m_max must be nonnegative, got -1"):
            check_decay(exponential, -1)
        with pytest.raises(InsufficientMoments, match="need at least the first moment"):
            check_decay(exponential, 0)

    def test_tiny_last_weight(self):
        # 1/10**400 rounds to 0.0, and 1/10**300 makes m**gamma overflow.
        # I_1 = 10**-300 is below 2**-b, yet the overflow is raised before
        # the exact kernel would run (it took 20 s at m = 400).
        for digits, m_max in ((300, 4), (400, 4), (300, 400)):
            w = WeightVector([1 - F(1, 10**digits), F(1, 10**digits)])
            with pytest.raises(FloatOverflow, match="double range"):
                check_decay(w, m_max)


class TestCheckLipschitz:
    def test_identical_vectors(self, ternary):
        result = check_lipschitz(ternary, ternary, 2)
        assert result == (0, 0, True)

    def test_ternary_vs_uniform(self, ternary, lebesgue3):
        result = check_lipschitz(ternary, lebesgue3, 1)
        assert result.distance == F(1, 6)
        assert result.bound == 1 * 3 * F(1, 3)
        assert result.ok

    def test_nearby_palindromic_pair(self, ternary):
        # max|a - b| is the middle entry, |0 - 1/6| = 1/6.
        other = parse_weights("5/12,1/6,5/12")
        result = check_lipschitz(ternary, other, 2)
        assert result.bound == 2 * 9 * F(1, 6)
        assert result.ok

    def test_base_mismatch(self, ternary):
        with pytest.raises(MeshMismatch):
            check_lipschitz(ternary, parse_weights("1/2,1/2"), 1)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.tuples(
                weight_vectors_st(n_min=n, n_max=n, interior=True),
                weight_vectors_st(n_min=n, n_max=n, interior=True),
            )
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=50)
    def test_bound_holds_on_random_pairs(self, pair, k):
        wa, wb = pair
        result = check_lipschitz(wa, wb, k)
        assert result.ok

    def test_json_round_trip(self, ternary, lebesgue3):
        result = check_lipschitz(ternary, lebesgue3, 2)
        data = json.loads(result.to_json())
        assert parse_rational(data["distance"]) == result.distance
        assert parse_rational(data["bound"]) == result.bound
        assert data["ok"] is result.ok

    def test_csv(self, ternary, lebesgue3):
        result = check_lipschitz(ternary, lebesgue3, 2)
        assert result.to_csv() == (
            "distance,bound,ok\n"
            f"{format_rational(result.distance)},{format_rational(result.bound)},True\n"
        )
