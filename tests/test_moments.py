"""Exact moment recurrences, the left-endpoint oracle, binomial transforms."""
from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measures import (
    BadTolerance,
    InsufficientMoments,
    MomentSequence,
    NotOdd,
    OutOfRange,
    WeightVector,
    approx_error_depth,
    exact_moments,
    left_endpoint_estimate,
    palindromic_odd_moment,
    parse_weights,
    shifted_moments,
)
from cantor_measures.rational import parse_rational

from conftest import weight_vectors_st
from oracles import branch_recurrence_moments, exact_moments_via_depth

F = Fraction

TERNARY_MOMENTS = (F(1), F(1, 2), F(3, 8), F(5, 16), F(87, 320))


def brute_force_left_sum(w, k: int, m: int) -> Fraction:
    """Independent oracle: enumerate every digit tuple explicitly."""
    n = w.n_branches
    total = F(0)
    for digits in product(range(n), repeat=k):
        mass = F(1)
        for d in digits:
            mass *= w.weights[d]
        x = F(sum(d * n**j for j, d in enumerate(digits)), n**k)
        total += mass * x**m
    return total


class TestExactMoments:
    def test_ternary_values(self, ternary):
        assert exact_moments(ternary, 4).values == TERNARY_MOMENTS

    def test_lebesgue_values(self, lebesgue3):
        assert exact_moments(lebesgue3, 3).values == (F(1), F(1, 2), F(1, 3), F(1, 4))

    def test_dirac_at_one(self):
        w = WeightVector([0, 1])
        assert exact_moments(w, 3).values == (F(1),) * 4

    def test_m_zero(self, ternary):
        assert exact_moments(ternary, 0).values == (F(1),)

    def test_negative_m_rejected(self, ternary):
        with pytest.raises(OutOfRange):
            exact_moments(ternary, -1)

    @given(st.integers(2, 5), st.integers(0, 4), st.integers(1, 8))
    def test_dirac_closed_form(self, n, pos, m_max):
        # A point mass at n/(N-1) has moments (n/(N-1))**m.
        pos = min(pos, n - 1)
        w = WeightVector([F(1) if i == pos else F(0) for i in range(n)])
        ms = exact_moments(w, m_max)
        x = F(pos, n - 1)
        assert ms.values == tuple(x**m for m in range(m_max + 1))

    @given(weight_vectors_st())
    def test_monotone_and_bounded(self, w):
        values = exact_moments(w, 10).values
        assert all(0 <= v <= 1 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))

    @given(weight_vectors_st(zero_last=True))
    def test_exponential_decay_when_last_weight_zero(self, w):
        n = w.n_branches
        values = exact_moments(w, 12).values
        for m, v in enumerate(values):
            assert v <= F(n - 1, n) ** m


class TestExactMomentsViaDepth:
    def test_ternary_depth_two(self, ternary):
        assert exact_moments_via_depth(ternary, 2, 2).values == (F(1), F(1, 2), F(3, 8))

    def test_depth_one_reduces_to_base_recurrence(self, ternary):
        assert (
            exact_moments_via_depth(ternary, 1, 6).values
            == exact_moments(ternary, 6).values
        )

    def test_lebesgue_mean(self, lebesgue3):
        assert exact_moments_via_depth(lebesgue3, 3, 1).values == (F(1), F(1, 2))

    @given(weight_vectors_st(n_max=4), st.integers(1, 3), st.integers(0, 5))
    @settings(max_examples=40)
    def test_depth_independence(self, w, k, m_max):
        assert (
            exact_moments_via_depth(w, k, m_max).values
            == exact_moments(w, m_max).values
        )


class TestKernelOracle:
    """The power-sum Horner kernel against the per-branch recurrence."""

    @given(
        st.one_of(weight_vectors_st(), weight_vectors_st(zero_last=True)),
        st.integers(0, 60),
    )
    @example(parse_weights("1/2,0,0,1/2"), 60)  # interior zeros
    @example(parse_weights("1/3,0,2/3,0"), 60)  # zero last weight
    @example(parse_weights("0,0,0,0,1"), 30)  # Dirac at one
    @settings(max_examples=60)
    def test_raw_equals_oracle(self, w, m_max):
        assert exact_moments(w, m_max).values == branch_recurrence_moments(w, m_max)

    @given(
        st.one_of(
            weight_vectors_st(palindromic=True),
            weight_vectors_st(palindromic=True, zero_last=True),
        ),
        st.integers(0, 60),
    )
    @example(parse_weights("1/4,0,1/2,0,1/4"), 60)  # interior zeros
    @example(parse_weights("0,1/2,1/2,0"), 60)  # zero end weights
    @settings(max_examples=60)
    def test_shifted_equals_oracle(self, w, m_max):
        assert shifted_moments(w, m_max).values == branch_recurrence_moments(
            w, m_max, shifted=True
        )

    @pytest.mark.parametrize(
        "weights,m_max,shifted",
        [
            ("1/2,0,1/2", 200, False),
            ("1/5,3/10,1/10,2/5", 150, False),
            ("1/2,0,1/2", 150, True),
        ],
    )
    def test_large_cases(self, weights, m_max, shifted):
        w = parse_weights(weights)
        kernel = shifted_moments if shifted else exact_moments
        expected = branch_recurrence_moments(w, m_max, shifted)
        assert kernel(w, m_max).values == expected


class TestLeftEndpointEstimate:
    def test_ternary_single_level(self, ternary):
        assert left_endpoint_estimate(ternary, 1, 1) == F(1, 3)

    def test_total_mass(self):
        w = WeightVector([F(1, 5), F(2, 5), F(2, 5)])
        assert left_endpoint_estimate(w, 3, 0) == 1

    def test_ternary_depth_eight_gap(self, ternary):
        # Lower sum within the proof-chain gap (1 + 1/3**8)**2 - 1 of I_2.
        estimate = left_endpoint_estimate(ternary, 8, 2)
        exact = F(3, 8)
        gap = (1 + F(1, 3**8)) ** 2 - 1
        assert estimate <= exact < estimate + gap
        assert exact - estimate <= F(31, 100_000)

    @given(weight_vectors_st(n_max=4), st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=40)
    def test_matches_brute_force(self, w, k, m):
        assert left_endpoint_estimate(w, k, m) == brute_force_left_sum(w, k, m)

    @given(weight_vectors_st(n_max=4), st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=40)
    def test_oracle_sandwich(self, w, k, m):
        # Lower sum below the exact moment, and within the rational gap bound.
        estimate = left_endpoint_estimate(w, k, m)
        exact = exact_moments(w, m).values[m]
        gap = (1 + F(1, w.n_branches**k)) ** m - 1
        assert estimate <= exact <= estimate + gap


class TestApproxErrorDepth:
    @pytest.mark.parametrize(
        "n,m,eps,expected",
        [
            (3, 10, F(1, 100), 7),
            (3, 1, F(1), 1),
            (10, 10, F(1, 100), 4),
        ],
    )
    def test_frozen_examples(self, n, m, eps, expected):
        assert approx_error_depth(n, m, eps) == expected

    def test_bad_tolerance(self):
        with pytest.raises(BadTolerance):
            approx_error_depth(3, 5, 0)
        with pytest.raises(BadTolerance):
            approx_error_depth(3, 5, F(-1, 10))
        for eps in (math.inf, math.nan):  # raised OverflowError, bare ValueError
            with pytest.raises(BadTolerance):
                approx_error_depth(3, 4, eps)

    @given(st.integers(2, 6), st.integers(1, 12), st.fractions(F(1, 500), F(2)))
    @settings(max_examples=40)
    def test_returned_depth_is_minimal_and_sufficient(self, n, m, eps):
        k = approx_error_depth(n, m, eps)
        assert (1 + F(1, n**k)) ** m - 1 <= eps
        if k > 1:
            assert (1 + F(1, n ** (k - 1))) ** m - 1 > eps

    @given(weight_vectors_st(n_max=3), st.integers(1, 5))
    @settings(max_examples=25)
    def test_guarantee_holds_for_actual_gap(self, w, m):
        eps = F(1, 50)
        k = approx_error_depth(w.n_branches, m, eps)
        if w.n_branches**k > 3**6:
            k = 6  # keep the enumeration small; gap only shrinks with k
            if (1 + F(1, w.n_branches**k)) ** m - 1 > eps:
                return
        exact = exact_moments(w, m).values[m]
        assert exact - left_endpoint_estimate(w, k, m) < eps


class TestPalindromicOddMoment:
    def test_ternary_third_moment(self):
        assert palindromic_odd_moment(TERNARY_MOMENTS[:3], 3) == F(5, 16)

    def test_first_moment_is_half(self):
        assert palindromic_odd_moment((F(1),), 1) == F(1, 2)

    def test_lebesgue_fifth_moment(self):
        prefix = (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5))
        assert palindromic_odd_moment(prefix, 5) == F(1, 6)

    def test_rejects_even_m(self):
        with pytest.raises(NotOdd):
            palindromic_odd_moment(TERNARY_MOMENTS, 4)

    def test_short_prefix_is_insufficient_moments(self):
        # It raised a bare ValueError, where inner_product raises
        # InsufficientMoments for the same condition.
        with pytest.raises(InsufficientMoments, match="need moments 0..4"):
            palindromic_odd_moment(TERNARY_MOMENTS[:3], 5)

    @pytest.mark.parametrize("m", [-1, -3])
    def test_rejects_negative_m(self, m):
        # A negative odd m passed both checks and returned 0 from an empty sum.
        with pytest.raises(OutOfRange):
            palindromic_odd_moment(TERNARY_MOMENTS, m)

    @given(weight_vectors_st(palindromic=True), st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]))
    @settings(max_examples=40)
    def test_reproduces_recurrence(self, w, m):
        ms = exact_moments(w, m)
        assert palindromic_odd_moment(ms, m) == ms.values[m]


class TestShiftedMoments:
    def test_ternary_values(self, ternary):
        shifted = shifted_moments(ternary, 4)
        assert shifted.values == (F(1), F(0), F(1, 8), F(0), F(7, 320))
        assert shifted.kind == "shifted"

    def test_dirac_at_one_powers_of_half(self):
        shifted = shifted_moments(WeightVector([0, 1]), 6)
        assert shifted.values == tuple(F(1, 2) ** m for m in range(7))

    @given(weight_vectors_st())
    def test_exponential_bound_any_weights(self, w):
        shifted = shifted_moments(w, 12)
        for m, v in enumerate(shifted.values):
            assert abs(v) <= F(1, 2) ** m

    @given(weight_vectors_st(palindromic=True))
    def test_odd_values_vanish_for_palindromic(self, w):
        shifted = shifted_moments(w, 9)
        assert all(v == 0 for v in shifted.values[1::2])

    @given(weight_vectors_st(n_max=3), st.integers(0, 40))
    @settings(max_examples=25)
    def test_matches_independent_binomial_transform(self, w, m):
        # Independent check: J_m is the binomial transform computed afresh.
        raw = exact_moments(w, m)
        expected = sum(
            math.comb(m, i) * F(-1, 2) ** (m - i) * raw.values[i]
            for i in range(m + 1)
        )
        assert shifted_moments(w, m).values[m] == expected


class TestMomentSequenceType:
    def test_zeroth_moment_enforced(self, ternary):
        with pytest.raises(ValueError):
            MomentSequence(weights=ternary, kind="raw", values=(F(1, 2),))

    def test_kind_validated(self, ternary):
        with pytest.raises(ValueError):
            MomentSequence(weights=ternary, kind="weird", values=(F(1),))

    def test_csv_format(self, ternary):
        text = exact_moments(ternary, 4).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "m,numerator,denominator"
        assert lines[-1] == "4,87,320"

    def test_json_round_trip(self, ternary):
        ms = exact_moments(ternary, 6)
        data = json.loads(ms.to_json())
        assert data["kind"] == "raw"
        assert [parse_rational(v) for v in data["moments"]] == list(ms.values)
        assert [parse_rational(a) for a in data["weights"]] == list(ms.weights)

    def test_huge_integers_render_without_cli(self, default_int_str_limit):
        # I_128 of this vector has a denominator beyond the 4300-digit
        # int/str limit, which used to be lifted only inside the CLI.
        ms = exact_moments(parse_weights("1/5,3/10,1/10,2/5"), 128)
        assert ms.values[-1].denominator.bit_length() > 4300 * math.log2(10)
        data = json.loads(ms.to_json())
        assert data["kind"] == "raw"
        assert [parse_rational(v) for v in data["moments"]] == list(ms.values)
        assert [parse_rational(a) for a in data["weights"]] == list(ms.weights)
        m, num, den = ms.to_csv().strip().split("\n")[-1].split(",")
        assert m == "128"
        assert F(int(Decimal(num)), int(Decimal(den))) == ms.values[-1]

    def test_json_round_trip_shifted(self, ternary):
        ms = shifted_moments(ternary, 6)
        data = json.loads(ms.to_json())
        assert data["kind"] == "shifted"
        assert [parse_rational(v) for v in data["moments"]] == list(ms.values)
