"""Holder exponents, moment decay regimes, Lipschitz CDF bound."""
from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measures import (
    Degenerate,
    MeshMismatch,
    WeightVector,
    cdf_table,
    check_decay,
    check_lipschitz,
    exact_moments,
    holder_exponent,
    parse_weights,
    shifted_moments,
)
from cantor_measures.rational import format_float, format_rational, parse_rational

from conftest import weight_vectors_st
from oracles import interval_mass

F = Fraction


class TestHolderExponent:
    def test_ternary(self, ternary):
        assert holder_exponent(ternary) == pytest.approx(
            math.log(2) / math.log(3), rel=1e-15
        )

    def test_uniform_is_lipschitz(self, lebesgue3):
        assert holder_exponent(lebesgue3) == pytest.approx(1.0)

    def test_five_branch(self):
        w = parse_weights("1/20,1/5,1/2,1/5,1/20")
        assert holder_exponent(w) == pytest.approx(math.log(2) / math.log(5), rel=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            holder_exponent(WeightVector([0, 1]))

    @given(weight_vectors_st(interior=True), st.integers(1, 3))
    @settings(max_examples=30)
    def test_max_increment_matches_exponent(self, w, k):
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
        report = check_decay(exact_moments(w, 64))
        assert report.regime == "exponential"
        assert report.violations == ()
        assert report.gamma == math.inf
        assert 0 < report.witness_constant <= 1
        assert report.max_m_checked == 64

    def test_ternary_polynomial_regime(self, ternary):
        report = check_decay(exact_moments(ternary, 64))
        assert report.regime == "polynomial"
        assert report.gamma == pytest.approx(math.log(2) / math.log(3), rel=1e-12)
        assert report.violations == ()
        # Infimum of I_m * m**gamma over 1..64 is attained at m = 1: I_1 = 1/2.
        assert report.witness_constant == pytest.approx(0.5, rel=1e-12)

    def test_dirac_at_one_constant_witness(self):
        w = WeightVector([0, 1])
        report = check_decay(exact_moments(w, 16))
        assert report.regime == "polynomial"
        assert report.gamma == 0.0
        assert report.witness_constant == pytest.approx(1.0)

    @given(weight_vectors_st(zero_last=True), st.integers(2, 16))
    @settings(max_examples=30)
    def test_exponential_regime_random(self, w, m_max):
        report = check_decay(exact_moments(w, m_max))
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
        report = check_decay(exact_moments(ternary, 16))
        assert json.loads(report.to_json()) == {
            "regime": "polynomial", "gamma": report.gamma,
            "witness_constant": report.witness_constant, "max_m_checked": 16,
            "violations": list(report.violations),
        }
        w = parse_weights("1/2,1/2,0")
        report = check_decay(exact_moments(w, 16))
        # No gamma key in the exponential regime, where it is inf.
        assert json.loads(report.to_json()) == {
            "regime": "exponential", "witness_constant": report.witness_constant,
            "max_m_checked": 16, "violations": [],
        }

    @pytest.mark.parametrize("weights,gamma", [("1/2,0,1/2", None), ("1/2,1/2,0", "inf")])
    def test_csv(self, weights, gamma):
        report = check_decay(exact_moments(parse_weights(weights), 16))
        gamma = gamma or format_float(report.gamma)
        assert report.to_csv() == (
            "regime,gamma,witness_constant,max_m_checked,ok\n"
            f"{report.regime},{gamma},{format_float(report.witness_constant)},16,True\n"
        )


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
