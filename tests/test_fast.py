"""Certified fast moment pipeline: factors, truncated products, bounds."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cantor_measures.fast as fast_module
from cantor_measures import (
    BadTolerance,
    FastResult,
    FloatOverflow,
    NotPalindromic,
    OutOfDomain,
    OutOfRange,
    depth_for_eps,
    exact_moments,
    fast_moments,
    mgf_eval,
    moments_at_depth,
    parse_weights,
    partial_product_series,
    series_mul_trunc,
    shifted_fast_moments,
    shifted_moments,
    truncated_factor,
    weight_vector,
)

from conftest import random_weight_vector, weight_vectors_st

F = Fraction


class TestTruncatedFactor:
    def test_dirac_at_zero_constant(self):
        w = weight_vector([1, 0, 0])
        s = truncated_factor(w, 5, 1)
        assert s[0] == 1.0
        assert np.all(s[1:] == 0.0)

    def test_ternary_first_scale(self, ternary):
        s = truncated_factor(ternary, 2, 1)
        assert s == pytest.approx([1.0, 1 / 3, 1 / 9], rel=1e-15)

    def test_dirac_quarter_scale(self):
        s = truncated_factor(weight_vector([0, 1]), 1, 2)
        assert list(s) == [1.0, 0.25]

    @given(weight_vectors_st(), st.integers(0, 12), st.integers(1, 3))
    @settings(max_examples=40)
    def test_nonnegative_with_unit_constant(self, w, degree, r):
        s = truncated_factor(w, degree, r)
        assert s[0] == 1.0
        assert np.all(s >= 0)


class TestSeriesMulTrunc:
    def test_multiplicative_identity(self):
        a = np.array([1.0, 0.5, 0.25])
        one = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(series_mul_trunc(a, one, 2), a)

    def test_binomial_square(self):
        a = np.array([1.0, 1.0])
        assert list(series_mul_trunc(a, a, 2)) == [1.0, 2.0, 1.0]

    def test_truncated_exp_square(self):
        a = np.array([1.0, 1.0, 0.5])
        assert list(series_mul_trunc(a, a, 2)) == [1.0, 2.0, 2.0]

    def test_short_inputs_padded(self):
        a = np.array([2.0])
        b = np.array([3.0])
        out = series_mul_trunc(a, b, 3)
        assert list(out) == [6.0, 0.0, 0.0, 0.0]


class TestDepthForEps:
    @pytest.mark.parametrize(
        "n,m,eps,expected",
        [(3, 2, 0.0224, 5), (3, 10, 1e-8, 21), (2, 2, 10.0, 1)],
    )
    def test_frozen_examples(self, n, m, eps, expected):
        assert depth_for_eps(n, m, eps) == expected

    def test_bad_tolerances(self):
        with pytest.raises(BadTolerance):
            depth_for_eps(3, 4, 0.0)
        with pytest.raises(BadTolerance):
            depth_for_eps(3, 4, -1e-3)
        with pytest.raises(BadTolerance):
            depth_for_eps(3, 4, 1e-13)
        with pytest.raises(BadTolerance):  # below the rounding error at m = 4096
            depth_for_eps(3, 4096, 1e-12)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerances(self, eps):
        # eps = nan used to pass and give certified bounds above 1.
        with pytest.raises(BadTolerance):
            depth_for_eps(3, 4, eps)

    def test_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            depth_for_eps(3, 1, 1e-6)

    @given(st.integers(2, 5), st.integers(2, 64), st.floats(1e-11, 1.0))
    @settings(max_examples=50)
    def test_minimal_sufficient_depth(self, n, m, eps):
        k = depth_for_eps(n, m, eps)
        lead = math.e * m * math.sqrt(m - 1)
        assert lead / n**k <= eps
        if k > 1:
            assert lead / n ** (k - 1) > eps


class TestFastMoments:
    def test_ternary_against_exact(self, ternary):
        result = fast_moments(ternary, 4, 1e-10)
        exact = [float(v) for v in exact_moments(ternary, 4).values]
        assert result.moments == pytest.approx(exact, abs=1e-10)
        assert np.all(result.certified_bound <= 1e-10)

    def test_lebesgue(self, lebesgue3):
        result = fast_moments(lebesgue3, 3, 1e-12)
        assert result.moments == pytest.approx([1, 0.5, 1 / 3, 0.25], abs=1e-12)

    def test_dirac_at_one(self):
        result = fast_moments(weight_vector([0, 1]), 2, 1e-10)
        assert result.moments == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)

    def test_low_indices_exact(self):
        w = weight_vector([F(2, 3), F(1, 3)])
        result = fast_moments(w, 8, 1e-10)
        assert result.moments[0] == 1.0
        assert result.moments[1] == float(F(1, 3))
        assert result.certified_bound[0] == 0.0
        assert abs(F(result.moments[1]) - F(1, 3)) <= F(result.certified_bound[1])

    def test_depth_rounded_to_power_of_two(self, ternary):
        result = fast_moments(ternary, 16, 1e-10)
        assert result.depth_used & (result.depth_used - 1) == 0
        assert result.depth_used >= depth_for_eps(3, 16, 1e-10)

    def test_small_m_without_bound(self, ternary):
        assert list(fast_moments(ternary, 0, 1e-6).moments) == [1.0]
        assert fast_moments(ternary, 1, 1e-6).moments[1] == 0.5

    def test_doubling_multiplication_count(self, ternary, monkeypatch):
        calls = []
        original = fast_module.series_mul_trunc

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fast_module, "series_mul_trunc", counting)
        result = fast_moments(ternary, 12, 1e-9)
        assert len(calls) == int(math.log2(result.depth_used))

    def test_certified_error_sweep(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.choice([2, 3, 5])
            w = random_weight_vector(rng, n)
            exact = exact_moments(w, 20).values
            for k in (1, 2, 5, 9, 20):
                result = moments_at_depth(w, 20, k)
                computed = result.moments
                for m in range(2, 21):
                    bound = math.e * m * math.sqrt(m - 1) / n**k
                    assert abs(float(exact[m]) - computed[m]) <= bound
                for m in range(21):
                    error = abs(F(computed[m]) - exact[m])
                    assert error <= F(result.certified_bound[m])

    def test_monotone_convergence_in_depth(self):
        rng = random.Random(11)
        for _ in range(6):
            w = random_weight_vector(rng, rng.choice([2, 3, 5]))
            exact = exact_moments(w, 16).values
            previous = None
            for k in (1, 2, 4, 8, 16):
                current = moments_at_depth(w, 16, k).moments
                assert np.all(current <= [float(v) + 1e-12 for v in exact])
                if previous is not None:
                    assert np.all(current >= previous - 1e-12)
                previous = current

    def test_splitting_identity(self, ternary):
        # Coefficients of depth k+j factor through depth k times a shifted block.
        m = 24
        for k, j in ((2, 3), (4, 4), (1, 6)):
            whole = partial_product_series(ternary, m, k + j)
            left = partial_product_series(ternary, m, k)
            block = partial_product_series(ternary, m, j) * (3.0**-k) ** np.arange(m + 1)
            combined = series_mul_trunc(left, block, m)
            assert combined == pytest.approx(list(whole), rel=1e-12)

    def test_partial_series_invariants(self, ternary):
        s = partial_product_series(ternary, 12, 11)  # non power of two depth
        assert s[0] == 1.0
        assert np.all(s >= 0)
        direct = partial_product_series(ternary, 12, 8)
        assert s[1] >= direct[1]

    def test_large_degree_finite(self, ternary):
        result = fast_moments(ternary, 256, 1e-9)
        assert np.all(np.isfinite(result.moments))
        exact = exact_moments(ternary, 64).values
        for m in (32, 64):
            assert abs(result.moments[m] - float(exact[m])) <= 1e-9

    def test_tolerance_guard(self, ternary):
        with pytest.raises(BadTolerance):
            fast_moments(ternary, 4, 1e-13)


class TestShiftedFastMoments:
    def test_ternary_against_exact_transform(self, ternary):
        result = shifted_fast_moments(ternary, 4, 1e-10)
        expected = [1.0, 0.0, 0.125, 0.0, 0.021875]
        assert result.moments == pytest.approx(expected, abs=1e-10)

    def test_odd_indices_exactly_zero(self, ternary):
        result = shifted_fast_moments(ternary, 9, 1e-8)
        assert np.all(result.moments[1::2] == 0.0)

    def test_rejects_non_palindromic(self):
        with pytest.raises(NotPalindromic):
            shifted_fast_moments(weight_vector([F(2, 3), F(1, 3)]), 4, 1e-8)

    def test_two_branch_uniform_against_oracle(self):
        w = weight_vector([F(1, 2), F(1, 2)])
        result = shifted_fast_moments(w, 2, 1e-10)
        oracle = shifted_moments(w, 2)
        assert result.moments[2] == pytest.approx(float(oracle.values[2]), abs=1e-10)

    def test_certified_bound_covers_error(self):
        rng = random.Random(23)
        for _ in range(6):
            n = rng.choice([2, 3, 4, 5])
            w = random_weight_vector(rng, n, palindromic=True)
            result = shifted_fast_moments(w, 10, 1e-9)
            oracle = shifted_moments(w, 10)
            for m in range(11):
                err = abs(result.moments[m] - float(oracle.values[m]))
                assert err <= max(result.certified_bound[m], 1e-9)

    def test_factor_is_centered(self, ternary):
        s = truncated_factor(ternary, 6, 1, shifted=True)
        # Weighted cosh: even coefficients positive, odd ones vanish.
        assert s[0] == 1.0
        assert np.all(s[2::2] > 0)
        assert s[1::2] == pytest.approx([0.0, 0.0, 0.0], abs=1e-17)


class TestCertifiedSweep:
    def test_seeded_exact_sweep(self):
        # The bound covers float rounding (~1e-17) as well as truncation.
        rng = random.Random(4096)
        cases = [
            (weight_vector([F(1, 5), F(3, 10), F(1, 10), F(2, 5)]), 20, 1e-10, False),
            (weight_vector([F(1, 2), 0, F(1, 2)]), 40, 1e-10, True),
        ]
        for i in range(24):
            shifted = i % 2 == 1
            w = random_weight_vector(rng, rng.randint(2, 5), palindromic=shifted)
            cases.append((w, rng.randint(2, 160), 10 ** rng.uniform(-12, -6), shifted))
        for w, m, eps, shifted in cases:
            if shifted:
                result, exact = shifted_fast_moments(w, m, eps), shifted_moments(w, m)
            else:
                result, exact = fast_moments(w, m, eps), exact_moments(w, m)
            for n in range(m + 1):
                error = abs(F(result.moments[n]) - exact.values[n])
                bound = F(result.certified_bound[n])
                assert error <= bound <= F(eps), (str(w), m, eps, n)

    @pytest.mark.parametrize(
        "m,eps",
        # eps just above the truncation term at depth 16 (m = 20) or 32
        # (m = 100): stopping there left the rounding term above eps.
        [(20, 5.505049172184772e-06), (100, 1.4595935252641823e-12)],
    )
    def test_eps_within_rounding_of_truncation_term(self, ternary, m, eps):
        result = fast_moments(ternary, m, eps)
        assert max(result.certified_bound) <= eps


class TestCertifiedRange:
    """Underflow of ``I_n / n!`` is in the bound; from n = 171 it is inf."""

    @pytest.mark.parametrize(
        "weights,m,eps,shifted",
        [
            ("1/2,0,1/2", 200, 1e-10, False),  # broke its bound from n = 173
            ("1/3,1/9,1/9,1/9,1/3", 3101, 2.38e-6, True),  # depth 1024, from n = 152
            ("1/5,3/10,1/10,2/5", 200, 1e-9, False),  # from n = 172
            ("0,1/2,1/2,0", 200, 1e-8, True),
        ],
    )
    def test_bound_covers_exact_error_to_200(self, weights, m, eps, shifted):
        w = parse_weights(weights)
        if shifted:
            result, exact = shifted_fast_moments(w, m, eps), shifted_moments(w, 200)
        else:
            result, exact = fast_moments(w, m, eps), exact_moments(w, 200)
        for n in range(201):
            bound = result.certified_bound[n]
            if n > 170:
                assert result.moments[n] == 0.0
                assert bound == math.inf or (shifted and n % 2 == 1 and bound == 0.0)
            else:
                assert abs(F(result.moments[n]) - exact.values[n]) <= F(bound), n
                assert bound <= eps or n > 165, n

    def test_moments_are_series_times_running_factorial(self, ternary):
        # The n roundings of the factorial loop the split reconstruction ran.
        series = partial_product_series(ternary, 180, 16)
        expected, fact = [], 1.0
        for n in range(171):
            fact *= max(n, 1)
            expected.append(series[n] * fact)
        result = moments_at_depth(ternary, 180, 16)
        assert list(result.moments[:171]) == expected
        assert not result.moments[171:].any()


class TestMgfEval:
    def test_normalization_at_zero(self, ternary):
        assert mgf_eval(ternary, 0.0, 12) == 1.0

    def test_dirac_at_one_tends_to_e(self):
        w = weight_vector([0, 1])
        assert mgf_eval(w, 1.0, 40) == pytest.approx(math.e, rel=1e-12)

    def test_cross_evaluation_with_moment_series(self, ternary):
        value = mgf_eval(ternary, 1.0, 30)
        moments = exact_moments(ternary, 30).values
        series = sum(float(v) / math.factorial(m) for m, v in enumerate(moments))
        tail = sum(1 / math.factorial(m) for m in range(31, 45))
        assert abs(value - series) <= 1e-9 + tail

    def test_monotone_in_depth(self, ternary):
        values = [mgf_eval(ternary, 2.5, k) for k in range(1, 25)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_depth_must_be_positive(self, ternary):
        with pytest.raises(ValueError):
            mgf_eval(ternary, 1.0, 0)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_non_finite_argument_is_a_domain_error(self, ternary, s):
        with pytest.raises(OutOfDomain):
            mgf_eval(ternary, s, 10)

    @pytest.mark.parametrize(
        "weights,s,last",
        [("1/2,0,1/2", 1.0, 646), ("1/2,1/2", -3.0, 1023), ("1/2,1/2", -1e300, None)],
    )
    def test_depth_past_the_double_range_of_n_to_the_r(self, weights, s, last):
        # From N**r = 3**647 (2**1024) on, s / N**r raised OverflowError,
        # which was reported as an infinite value.
        w = parse_weights(weights)
        converged = mgf_eval(w, s, 2000)
        assert mgf_eval(w, s, 10**9) == converged
        if last is not None:  # every factor past the last printable depth is 1.0
            assert mgf_eval(w, s, last) == converged
        else:  # uniform on [0, 1]: (1 - e**s) / -s
            assert converged == pytest.approx(1e-300, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [1e6, 1400.0])
    def test_overflow_is_a_domain_error(self, s):
        # 1e6 overflows math.exp; at 1400 every factor is finite but the
        # product is not.
        with pytest.raises(FloatOverflow):
            mgf_eval(weight_vector([0, 1]), s, 30)


class TestFastResultType:
    def test_certified_bound_formula(self, ternary):
        result = moments_at_depth(ternary, 12, 7)
        assert result.certified_bound[0] == 0.0
        # The depth-7 product has I_1 * (1 - 3**-7), not I_1.
        assert abs(F(result.moments[1]) - F(1, 2)) <= F(result.certified_bound[1])
        for m in range(2, 13):
            expected = math.e * m * math.sqrt(m - 1) / 3**7
            assert result.certified_bound[m] == pytest.approx(expected, rel=1e-12)

    def test_csv_layout(self, ternary):
        text = fast_moments(ternary, 3, 1e-9).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "m,value,bound"
        assert lines[1].startswith("0,1,0")
        assert len(lines) == 5

    def test_json_round_trip(self, ternary):
        result = fast_moments(ternary, 6, 1e-9)
        assert FastResult.from_json(result.to_json()) == result

    def test_arrays_read_only(self, ternary):
        result = fast_moments(ternary, 3, 1e-9)
        with pytest.raises(ValueError):
            result.moments[0] = 2.0


@pytest.mark.parametrize(
    "call",
    [
        lambda w: truncated_factor(w, -1),
        lambda w: truncated_factor(w, 3, 0),
        lambda w: series_mul_trunc(np.array([1.0]), np.array([1.0]), -1),
        lambda w: partial_product_series(w, 4, -1),
        lambda w: depth_for_eps(3, 1, 1e-6),
        lambda w: moments_at_depth(w, 4, 0),
        lambda w: fast_moments(w, -1, 1e-6),
        lambda w: shifted_fast_moments(w, -1, 1e-6),
    ],
)
def test_range_errors(ternary, call):
    with pytest.raises(OutOfRange):
        call(ternary)
