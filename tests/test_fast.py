"""Certified fast moment pipeline: factors, truncated products, bounds."""
from __future__ import annotations

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cantor_measures.fast as fast_module
from cantor_measures import (
    DEPTH_CAP,
    BadTolerance,
    DepthOverflow,
    FloatOverflow,
    NotPalindromic,
    OutOfDomain,
    OutOfRange,
    WeightVector,
    exact_moments,
    parse_weights,
    shifted_moments,
)
from cantor_measures.fast import (
    FastResult,
    depth_for_eps,
    fast_moments,
    mgf_eval,
    partial_product_series,
    series_mul_trunc,
    shifted_fast_moments,
)
from cantor_measures.measure import _digit_products
from cantor_measures.rational import format_float

from conftest import random_weight_vector, weight_vectors_st
from oracles import factor_by_factor_series, left_endpoint_sum, moments_at_depth

F = Fraction


def reference_renderings(result: FastResult) -> tuple[str, str]:
    """CSV and JSON of a result by the per-element renderers: one
    ``format_float`` per value and one ``json.dumps`` of the float lists."""
    pairs = zip(result.moments, result.certified_bound)
    rows = [f"{m},{format_float(v)},{format_float(b)}" for m, (v, b) in enumerate(pairs)]
    text = json.dumps({"depth": result.depth_used,
                       "moments": [float(v) for v in result.moments],
                       "bounds": [float(b) for b in result.certified_bound]})
    return "\n".join(["m,value,bound", *rows]) + "\n", text


#: Rows that are not in the 0/inf tail: ``(value, bound)``.
_HEAD_ROWS = [(1.0, 0.0), (0.30000000000000004, 1e-17), (5e-324, math.inf),
              (-2.5, math.inf), (0.0, 1e-300)]
#: A tail row of the centred path, which ends a run of inf bounds only.
_ZERO_ROW = (0.0, 0.0)
#: Rows that look like the tail but print otherwise, so they end the run.
_RUN_BREAKERS = [(-0.0, math.inf), (math.nan, math.inf), (0.0, 1e-3), _ZERO_ROW,
                 (0.0, -0.0), (0.0, math.nan), (0.0, -math.inf), (math.inf, math.inf)]


def _hand_built_cases() -> list[tuple[list[tuple[float, float]], int]]:
    """Rows and the index where the 0/inf tail starts.

    In the tail every value is ``+0.0`` and the bounds repeat the last two,
    each ``+0.0`` or ``+inf``: the centred tail alternates them.
    """
    cases = []
    for size in range(7):  # every tail length, the whole array included
        for tail in range(size + 1):
            head = (_HEAD_ROWS * 2)[: size - tail]
            cases.append((head + [(0.0, math.inf)] * tail, size - tail))
    for row in _RUN_BREAKERS:
        cases.append(([row], 0 if row is _ZERO_ROW else 1))
        cases.append(([row, (0.0, math.inf)], 0 if row is _ZERO_ROW else 1))
        cases.append(([_HEAD_ROWS[0], row, (0.0, math.inf), (0.0, math.inf)], 2))
        cases.append(([(0.0, math.inf), row], 0 if row is _ZERO_ROW else 2))
    # Both phases of the alternating tail, and rows that break the period.
    zero, inf = _ZERO_ROW, (0.0, math.inf)
    cases += [([_HEAD_ROWS[0], inf, zero, inf], 1), ([_HEAD_ROWS[1], zero, inf, zero], 1),
              ([zero, zero, inf], 1), ([inf, inf, zero, inf], 1), ([zero, inf, inf], 1),
              ([(-0.0, 0.0), inf, zero], 1), ([zero, (0.0, -0.0), zero, inf], 2)]
    return cases


class TestTruncatedFactor:
    def test_dirac_at_zero_constant(self):
        w = WeightVector([1, 0, 0])
        s = partial_product_series(w, 5, 1, False)
        assert s[0] == 1.0
        assert np.all(s[1:] == 0.0)

    def test_ternary_first_scale(self, ternary):
        s = partial_product_series(ternary, 2, 1, False)
        assert s == pytest.approx([1.0, 1 / 3, 1 / 9], rel=1e-15)

    @given(weight_vectors_st(), st.integers(0, 12))
    @settings(max_examples=40)
    def test_nonnegative_with_unit_constant(self, w, degree):
        s = partial_product_series(w, degree, 1, False)
        assert s[0] == 1.0
        assert np.all(s >= 0)

    @pytest.mark.parametrize("x", [0.25, -0.4, 1 / 3, -0.5, 5e-324])
    def test_exp_terms_match_float64_loop(self, x):
        # The same recurrence on numpy float64 scalars gives the same bits,
        # in a row of its own and beside the other four x values.
        expected = np.empty(171)
        expected[0] = 1.0
        for n in range(1, 171):
            expected[n] = expected[n - 1] * (x / n)
        xs = [0.25, -0.4, 1 / 3, -0.5, 5e-324]
        for terms in (fast_module._exp_terms(np.array([x]), 170)[0],
                      fast_module._exp_terms(np.array(xs), 170)[xs.index(x)]):
            assert terms.dtype == np.float64
            assert np.array_equal(terms.view(np.int64), expected.view(np.int64))


class TestSeriesMulTrunc:
    def test_multiplicative_identity(self):
        a = np.array([1.0, 0.5, 0.25])
        one = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(series_mul_trunc(a, one), a)

    def test_binomial_square(self):
        a = np.array([1.0, 1.0, 0.0])
        assert list(series_mul_trunc(a, a)) == [1.0, 2.0, 1.0]

    def test_truncated_exp_square(self):
        a = np.array([1.0, 1.0, 0.5])
        assert list(series_mul_trunc(a, a)) == [1.0, 2.0, 2.0]

    @staticmethod
    def _operand(rng: random.Random, size: int, signed: bool) -> np.ndarray:
        """Doubles from ``2**-1074`` to 2, subnormals and exact zeros included."""
        values = []
        for _ in range(size):
            kind = rng.random()
            if kind < 0.1:
                value = 0.0
            elif kind < 0.2:
                value = 5e-324 * rng.randint(1, 2**52)  # subnormal, 2**-1074 up
            else:
                value = math.ldexp(rng.random(), rng.randint(-1073, 1))
            values.append(-value if signed and rng.random() < 0.5 else value)
        return np.array(values)

    @pytest.mark.parametrize("seed", range(12))
    def test_within_gamma_of_exact_convolution(self, seed):
        # Every double is an integer times 2**-1074, so the exact convolution
        # is an integer times 2**-2148.  Coefficient n is a sum of n + 1
        # products: gamma_(n+1) of the absolute sum, and each product and the
        # sum may underflow by 2**-1075 more.
        rng = random.Random(f"series_mul_trunc:{seed}")
        u, eta = F(1, 2**53), F(1, 2**1075)
        for size in (1, 2, 3, 11, 12, 17, 64, 171, rng.randint(1, 171)):
            signed = seed % 2 == 1
            a = self._operand(rng, size, signed)
            b = self._operand(rng, rng.choice([size, rng.randint(1, 171)]), signed)
            if seed % 3 == 1:  # trailing exact zeros
                b[rng.randint(1, len(b)):] = 0.0
            elif seed % 3 == 2:  # zero past index 0
                b[1:] = 0.0
            ints_a = [int(F(x) * 2**1074) for x in a]
            ints_b = [int(F(x) * 2**1074) for x in b]
            product = series_mul_trunc(a, b)
            assert product.shape == a.shape
            for n, value in enumerate(product):
                terms = [ints_a[i] * ints_b[n - i] for i in range(max(0, n - len(b) + 1), n + 1)]
                exact = F(sum(terms), 2**2148)
                gamma = (n + 1) * u / (1 - (n + 1) * u)
                bound = gamma * F(sum(map(abs, terms)), 2**2148) + (n + 2) * eta
                assert abs(F(value) - exact) <= bound, (size, n)
            if not signed:
                assert not np.signbit(product).any()

    @pytest.mark.parametrize("shifted", [False, True])
    @pytest.mark.parametrize("weights", ["0,1", "1/2,1/2", "1/3,1/9,1/9,1/9,1/3"])
    def test_degree_4096_product_is_finite(self, weights, shifted):
        # The series runs at scale 2**500: operands up to 2**501, sums of
        # products below 2**1006, at any degree.  Dirac at 1 ("0,1") has the
        # largest coefficients, 2**n / n! at the product's scale.
        w = parse_weights(weights)
        for depth in (1, 2, 64, 1024):
            series = partial_product_series(w, 4096, depth, shifted)
            assert np.isfinite(series).all()
            assert series[0] == 1.0


class TestDepthForEps:
    @pytest.mark.parametrize(
        "n,m,eps,expected",
        [(3, 2, 0.0224, 8), (3, 10, 1e-8, 32), (2, 2, 10.0, 1)],
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
        # The rounding term at index 170 reaches eps before the truncation
        # term, 170 * 1000**-k, falls below what is left.
        with pytest.raises(BadTolerance, match=r"index 170 \(depth 8\)"):
            depth_for_eps(1000, 170, 1e-12)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerances(self, eps):
        # eps = nan used to pass and give certified bounds above 1.
        with pytest.raises(BadTolerance):
            depth_for_eps(3, 4, eps)

    def test_m_below_two_gets_depth_one(self):
        # It used to raise OutOfRange; no index the product certifies needs
        # a deeper product, and eps is still checked.
        for shifted in (False, True):
            assert depth_for_eps(3, 1, 1e-6, shifted) == 1
            assert depth_for_eps(3, 0, 1e-12, shifted) == 1
            with pytest.raises(BadTolerance):
                depth_for_eps(3, 1, 1e-13, shifted)

    @given(st.integers(2, 5), st.integers(2, 400), st.floats(1e-11, 1.0), st.booleans())
    @settings(max_examples=50)
    def test_minimal_sufficient_depth(self, n, m, eps, shifted):
        # Truncation plus rounding at every index 2..min(m, 170), with
        # I_1 <= 1 and every raw moment at most 1, plus the underflow term
        # at the top index, where it is largest.
        k = depth_for_eps(n, m, eps, shifted)
        assert k & (k - 1) == 0
        top = min(m, 170)

        def bound(depth):
            def at(i):
                size = 0.5**i if shifted else 1.0
                return (i * n**-depth + fast_module._rounding(n, depth, i)) * size
            underflow = fast_module._underflow(n, depth, top, float(math.factorial(top)))
            return max(at(i) for i in range(2, top + 1)) + underflow

        assert bound(k) <= eps
        if k > 1:
            assert bound(k // 2) > eps


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
        result = fast_moments(WeightVector([0, 1]), 2, 1e-10)
        assert result.moments == pytest.approx([1.0, 1.0, 1.0], abs=1e-10)

    def test_low_indices_exact(self):
        w = WeightVector([F(2, 3), F(1, 3)])
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
            for k in (1, 2, 4, 8, 16):
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

    def test_doubling_matches_factor_by_factor_product(self):
        weights = ("1/2,0,1/2", "1/2,1/2", "1/5,3/10,1/10,2/5", "1/3,1/9,1/9,1/9,1/3")
        depths = (1, 2, 4, 8, 16, 32, 64)
        for text, depth, shifted in itertools.product(weights, depths, (False, True)):
            w = parse_weights(text)
            doubled = partial_product_series(w, 30, depth, shifted)
            expected = factor_by_factor_series(w, 30, depth, shifted)
            assert doubled == pytest.approx(expected, rel=1e-12, abs=0), (text, depth, shifted)

    def test_partial_series_invariants(self, ternary):
        s = partial_product_series(ternary, 12, 16)
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
            shifted_fast_moments(WeightVector([F(2, 3), F(1, 3)]), 4, 1e-8)

    def test_two_branch_uniform_against_oracle(self):
        w = WeightVector([F(1, 2), F(1, 2)])
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
        s = partial_product_series(ternary, 6, 1, True)
        # Weighted cosh: even coefficients positive, odd ones vanish.
        assert s[0] == 1.0
        assert np.all(s[2::2] > 0)
        assert s[1::2] == pytest.approx([0.0, 0.0, 0.0], abs=1e-17)


class TestTruncationTerm:
    """Exact check of both truncation terms against the depth-k cells."""

    RAW = ("1/5,3/10,1/10,2/5", "2/3,1/3", "1/100,99/100", "1/20,0,19/20")
    PALINDROMIC = ("1/2,1/2", "1/2,0,1/2", "1/3,1/3,1/3", "1/3,1/9,1/9,1/9,1/3", "0,1/2,1/2,0")

    def test_self_similar_split_bounds(self):
        # X = X_k + N**-k X' gives 0 <= I_n - I_(n;k) <= n I_1 N**-k and, on
        # the centred cells, |J_n - J_(n;k)| <= n 2**-n N**-k.  The depth-k
        # moments are the cell sums: left-endpoint sums E[X_k**n], and the
        # same cells shifted by (1 - N**-k)/2 for the centred ones.
        worst = 0
        for text in self.RAW + self.PALINDROMIC:
            w = parse_weights(text)
            n_base = w.n_branches
            raw = exact_moments(w, 40).values
            centred = shifted_moments(w, 40).values if w.is_palindromic else None
            for k in range(1, 7):
                masses, denominator = _digit_products(w, k)
                size = n_base**k
                cells = [(p, 2 * a - size + 1) for a, p in enumerate(masses) if p]
                for n in range(1, 41):
                    gap = raw[n] - left_endpoint_sum(w, k, n)
                    bound = n * raw[1] / size
                    assert 0 <= gap <= bound, (text, k, n)
                    if n == 1:
                        assert gap == bound
                    else:
                        worst = max(worst, gap / bound)
                    if centred is not None:
                        at_depth = F(sum(p * b**n for p, b in cells), denominator * (2 * size)**n)
                        assert abs(centred[n] - at_depth) <= F(n, 2**n * size), (text, k, n)
        # Nearly attained from n = 2 on, so a term half as large fails.
        assert worst > 0.9


class TestCertifiedSweep:
    def test_seeded_exact_sweep(self):
        # The bound covers float rounding (~1e-17) as well as truncation.
        rng = random.Random(4096)
        cases = [
            (WeightVector([F(1, 5), F(3, 10), F(1, 10), F(2, 5)]), 20, 1e-10, False),
            (WeightVector([F(1, 2), 0, F(1, 2)]), 40, 1e-10, True),
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

    def test_seeded_sweep_to_the_top_index(self):
        # The underflow term of I_n / n! used to be left out of the depth
        # rule, so bounds at n = 169 and 170 could exceed eps (50 indices of
        # this sweep did).  Now every bound up to 170 is within eps.
        rng = random.Random(170)
        for i in range(40):
            shifted = i % 2 == 1
            w = random_weight_vector(rng, 2 + i // 2 % 4, palindromic=shifted)
            exact = (shifted_moments if shifted else exact_moments)(w, 170).values
            for eps in (1e-12, 1e-10):
                result = (shifted_fast_moments if shifted else fast_moments)(w, 170, eps)
                for n in range(2, 171):
                    error = abs(F(result.moments[n]) - exact[n])
                    bound = F(result.certified_bound[n])
                    assert error <= bound <= F(eps), (str(w), eps, n)

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
                assert bound <= eps, n

    def test_moments_are_series_times_running_factorial(self):
        # The n roundings of the factorial loop the split reconstruction ran,
        # on the degree-m product.  The certified path multiplies only to
        # degree 170, so this is also the prefix identity it relies on:
        # coefficient n of a truncated product is the same double for every
        # degree from n up.  N = 2..5, raw and centred, depths 8 and 16.
        weights = ("1/2,1/2", "1/2,0,1/2", "1/5,3/10,1/10,2/5", "1/3,1/9,1/9,1/9,1/3")
        cases = ((180, False), (4096, False), (4096, True))
        for text, (m_max, shifted), depth in itertools.product(weights, cases, (8, 16)):
            w = parse_weights(text)
            series = partial_product_series(w, m_max, depth, shifted)
            capped = partial_product_series(w, 170, depth, shifted)
            assert np.array_equal(series[:171], capped)
            expected, fact = [], 1.0
            for n in range(171):
                fact *= max(n, 1)
                expected.append(series[n] * fact)
            exact = None if shifted else fast_module._first_moment(w)
            moments, _ = fast_module._certified(w, m_max, depth, shifted, exact)
            assert np.array_equal(moments[:171], expected)
            assert not moments[171:].any()


class TestMgfEval:
    def test_normalization_at_zero(self, ternary):
        assert mgf_eval(ternary, 0.0, 12) == 1.0

    def test_dirac_at_one_tends_to_e(self):
        w = WeightVector([0, 1])
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

    def test_no_drift_once_factors_are_one(self):
        # The float sum of ten weights 1/10 is 0.9999999999999999; each
        # level past the point where every exp term is 1.0 used to multiply
        # the value by it (3.1945280494653274 at depth 20, ...203 at 300).
        w = parse_weights(",".join(["1/10"] * 10))
        assert sum(float(a) for a in w.weights) < 1.0
        assert mgf_eval(w, 2.0, 300) == mgf_eval(w, 2.0, 20)

    @pytest.mark.parametrize("s", [1e6, 1400.0])
    def test_overflow_is_a_domain_error(self, s):
        # 1e6 overflows math.exp; at 1400 every factor is finite but the
        # product is not.
        with pytest.raises(FloatOverflow):
            mgf_eval(WeightVector([0, 1]), s, 30)


class TestFastResultType:
    def test_certified_bound_formula(self, ternary):
        result = moments_at_depth(ternary, 12, 8)
        assert result.certified_bound[0] == 0.0
        # The depth-8 product has I_1 * (1 - 3**-8), not I_1: the truncation
        # term n * I_1 * 3**-8 is attained at n = 1.
        assert abs(F(result.moments[1]) - F(1, 2)) <= F(result.certified_bound[1])
        moments, bounds = fast_module._certified(ternary, 12, 8, True, None)
        for m in range(1, 13):
            rounding = fast_module._rounding(3, 8, m)
            raw = m * 0.5 / 3**8 + rounding * result.moments[m]
            assert result.certified_bound[m] == pytest.approx(raw, rel=1e-12, abs=0)
            centred = (m / 3**8 + rounding) * 0.5**m
            assert bounds[m] == pytest.approx(centred, rel=1e-12, abs=0)

    def test_csv_layout(self, ternary):
        text = fast_moments(ternary, 3, 1e-9).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "m,value,bound"
        assert lines[1].startswith("0,1,0")
        assert len(lines) == 5

    def test_renderers_match_format_float_and_json(self):
        values = [1.0, 0.30000000000000004, 5e-324, 0.0, -0.0]
        bounds = [0.0, 1e-17, math.inf, math.inf, 1e-17]
        result = FastResult(moments=np.array(values), depth_used=4,
                            certified_bound=np.array(bounds))
        # The per-element renderers they replaced, on the numpy scalars.
        rows = [f"{m},{format_float(v)},{format_float(b)}"
                for m, (v, b) in enumerate(zip(result.moments, result.certified_bound))]
        assert result.to_csv() == "\n".join(["m,value,bound", *rows]) + "\n"
        text = result.to_json()
        assert text == json.dumps({"depth": 4,
                                   "moments": [float(v) for v in result.moments],
                                   "bounds": [float(b) for b in result.certified_bound]})
        assert text.count("Infinity") == 2

    @pytest.mark.parametrize("rows,tail_start", _hand_built_cases())
    def test_renderers_match_reference_on_hand_built_tails(self, rows, tail_start):
        result = FastResult(moments=np.array([v for v, _ in rows], dtype=float), depth_used=4,
                            certified_bound=np.array([b for _, b in rows], dtype=float))
        assert result._tail()[0] == tail_start
        assert (result.to_csv(), result.to_json()) == reference_renderings(result)

    @pytest.mark.parametrize("seed", range(8))
    def test_csv_template_matches_per_row_form(self, seed):
        # Seeded heads with -0.0, subnormal, nan and inf rows, then a tail
        # that repeats inf bounds or alternates 0 and inf in either phase.
        rng = random.Random(f"fast-csv:{seed}")
        specials = [-0.0, 0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e-17]
        for _ in range(20):
            head = [rng.choice(specials) if rng.random() < 0.4 else rng.uniform(-2, 2)
                    for _ in range(2 * rng.randint(0, 40))]
            period = rng.choice([[math.inf, math.inf], [0.0, math.inf], [math.inf, 0.0]])
            tail = rng.randint(0, 9)
            result = FastResult(moments=np.array(head[0::2] + [0.0] * tail), depth_used=8,
                                certified_bound=np.array(head[1::2] + (period * 5)[:tail]))
            rows = zip(result.moments.tolist(), result.certified_bound.tolist())
            per_row = ["%d,%.17g,%.17g\n" % (m, v, b) for m, (v, b) in enumerate(rows)]
            assert result.to_csv() == "m,value,bound\n" + "".join(per_row)

    @pytest.mark.parametrize("m", [0, 1, 2, 170, 171, 400, 4096, 200, 201])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_renderers_match_reference_on_pipeline_results(self, ternary, m, shifted):
        result = (shifted_fast_moments if shifted else fast_moments)(ternary, m, 1e-8)
        assert (result.to_csv(), result.to_json()) == reference_renderings(result)
        # The tail starts at 171, where a centred one alternates bounds 0
        # (odd n) and inf (even n); below it, an odd last centred index,
        # value 0 and bound 0, is a tail of one row.
        expected = 171 if m > 170 else m + 1 - (shifted and m % 2)
        assert result._tail()[0] == expected

    @pytest.mark.parametrize(
        "moments,bounds",
        [
            ([1.0, 0.5, 0.25], [0.0, 1e-3]),  # used to drop index 2 from the CSV
            ([[1.0, 0.5]], [[0.0, 0.0]]),  # 2-D used to fail only when rendered
            ([1.0, 0.5], [[0.0, 0.0]]),
            (1.0, 0.0),
        ],
    )
    def test_arrays_must_be_one_dimensional_and_equal_length(self, moments, bounds):
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            FastResult(np.array(moments), 1, np.array(bounds))

    def test_arrays_read_only(self, ternary):
        result = fast_moments(ternary, 3, 1e-9)
        with pytest.raises(ValueError):
            result.moments[0] = 2.0


@pytest.mark.parametrize(
    "call",
    [
        lambda w: partial_product_series(w, -1, 1),
        lambda w: mgf_eval(w, 1.0, 0),
        lambda w: partial_product_series(w, 4, -1),
        lambda w: mgf_eval(w, 1.0, -1),
        lambda w: partial_product_series(w, 4, 0),
        lambda w: fast_moments(w, -1, 1e-6),
        lambda w: shifted_fast_moments(w, -1, 1e-6),
        lambda w: partial_product_series(w, 4, 3),
        lambda w: partial_product_series(w, 4, 6),
    ],
)
def test_range_errors(ternary, call):
    with pytest.raises(OutOfRange):
        call(ternary)


@pytest.mark.parametrize("compute", [fast_moments, shifted_fast_moments])
def test_index_cap_raises_before_any_array(ternary, compute):
    # m = 10**10 used to pass depth_for_eps and die in np.zeros with a
    # MemoryError traceback; past the cap nothing is built at all.  The cap
    # error is an OutOfRange, as it was before the one cap check.
    assert issubclass(DepthOverflow, OutOfRange)
    tracemalloc.start()
    try:
        with pytest.raises(DepthOverflow, match=f"m_max = {DEPTH_CAP + 1} exceeds the cap"):
            compute(ternary, DEPTH_CAP + 1, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
