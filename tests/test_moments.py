"""Exact moment recurrences, the left-endpoint oracle, binomial transforms."""
from __future__ import annotations

import copy
import json
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from cantor_measures import (
    MomentSequence,
    OutOfRange,
    WeightVector,
    exact_moments,
    kronecker_power,
    parse_weights,
    shifted_moments,
)
from cantor_measures import moments
from cantor_measures.moments import _self_similar_moments
from cantor_measures.rational import parse_rational

from conftest import parts_to_weights, random_weight_vector, weight_vectors_st
from oracles import (
    approx_error_depth,
    branch_recurrence_moments,
    exact_moments_via_depth,
    full_stride_moments,
    left_endpoint_sum,
    moments_csv,
    moments_json,
    palindromic_odd_moment,
)

F = Fraction

TERNARY_MOMENTS = (F(1), F(1, 2), F(3, 8), F(5, 16), F(87, 320))


def centred_sweep(seed: int = 25) -> list[tuple[WeightVector, int]]:
    """Seeded ``(w, m)`` for the shifted kernel, N = 2..5, m from 100 to 150.

    Per N: a palindromic vector, for odd N also one with a zero middle
    weight, and a vector that is not palindromic.
    """
    rng = random.Random(seed)
    vectors = []
    for n in range(2, 6):
        half = [rng.randint(1, 9) for _ in range(n // 2)]
        for middle in ([0], [rng.randint(1, 9)]) if n % 2 else ([],):
            vectors.append(parts_to_weights(half + middle + half[::-1]))
        parts = [rng.randint(0, 9) for _ in range(n)]
        parts[0] = parts[-1] + 1  # not palindromic
        vectors.append(parts_to_weights(parts))
    return [(w, rng.randint(100, 150)) for w in vectors]


def render_sweep(seed: int = 26) -> list[tuple[WeightVector, str, int]]:
    """Seeded ``(w, kind, m)`` for the renderer, N = 2..5, m from 100 to 200.

    Per N: a raw and a shifted sequence of a vector with zero weights
    allowed, and a shifted palindromic one (the stride-2 chain).
    """
    rng = random.Random(seed)
    cases = []
    for n in range(2, 6):
        cases.append((random_weight_vector(rng, n), "raw", rng.randint(100, 200)))
        cases.append((random_weight_vector(rng, n), "shifted", rng.randint(100, 200)))
        w = random_weight_vector(rng, n, palindromic=True)
        cases.append((w, "shifted", rng.randint(100, 200)))
    return cases


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

    @pytest.mark.parametrize("w,m_max", centred_sweep())
    def test_equals_full_stride(self, w, m_max):
        offsets = range(1 - w.n_branches, w.n_branches, 2)
        got = _self_similar_moments(w, offsets, m_max, q=2)[:2]  # without the factors
        expected = full_stride_moments(w, offsets, m_max, q=2)
        if w.is_palindromic:  # stride 2: equal values, a chain without odd steps
            assert list(map(F, *got)) == list(map(F, *expected))
            assert got[1][-1].bit_length() < expected[1][-1].bit_length()
        else:  # stride 1: the same integers
            assert got == expected


class TestLeftEndpointEstimate:
    def test_ternary_single_level(self, ternary):
        assert left_endpoint_sum(ternary, 1, 1) == F(1, 3)

    def test_total_mass(self):
        w = WeightVector([F(1, 5), F(2, 5), F(2, 5)])
        assert left_endpoint_sum(w, 3, 0) == 1

    def test_negative_m_rejected(self, ternary):
        with pytest.raises(OutOfRange):
            left_endpoint_sum(ternary, 1, -1)

    def test_ternary_depth_eight_gap(self, ternary):
        # Lower sum within the proof-chain gap (1 + 1/3**8)**2 - 1 of I_2.
        estimate = left_endpoint_sum(ternary, 8, 2)
        exact = F(3, 8)
        gap = (1 + F(1, 3**8)) ** 2 - 1
        assert estimate <= exact < estimate + gap
        assert exact - estimate <= F(31, 100_000)

    @given(weight_vectors_st(n_max=4), st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=40)
    def test_matches_brute_force(self, w, k, m):
        assert left_endpoint_sum(w, k, m) == brute_force_left_sum(w, k, m)

    @given(weight_vectors_st(n_max=4), st.integers(1, 4), st.integers(0, 6))
    @settings(max_examples=40)
    def test_oracle_sandwich(self, w, k, m):
        # Lower sum below the exact moment, and within the rational gap bound.
        estimate = left_endpoint_sum(w, k, m)
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
        assert exact - left_endpoint_sum(w, k, m) < eps


class TestPalindromicOddMoment:
    def test_ternary_third_moment(self):
        assert palindromic_odd_moment(TERNARY_MOMENTS[:3], 3) == F(5, 16)

    def test_first_moment_is_half(self):
        assert palindromic_odd_moment((F(1),), 1) == F(1, 2)

    def test_lebesgue_fifth_moment(self):
        prefix = (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5))
        assert palindromic_odd_moment(prefix, 5) == F(1, 6)

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


class TestKroneckerIdentity:
    """The k-th Kronecker power of w is the same measure in base ``N**k``.

    Both sides run the integer kernel, the right one at bases up to 64.
    """

    @given(weight_vectors_st(n_max=4), st.sampled_from([2, 3]))
    @settings(max_examples=25)
    def test_raw_moments(self, w, k):
        power = kronecker_power(w, k)
        assert exact_moments(power, 40).values == exact_moments(w, 40).values

    @given(weight_vectors_st(n_max=4, palindromic=True), st.sampled_from([2, 3]))
    @settings(max_examples=25)
    def test_shifted_moments(self, w, k):
        power = kronecker_power(w, k)
        assert power.is_palindromic
        assert shifted_moments(power, 40).values == shifted_moments(w, 40).values


class TestMomentSequenceType:
    def test_zeroth_moment_enforced(self, ternary):
        with pytest.raises(ValueError):
            MomentSequence(weights=ternary, kind="raw", values=(F(1, 2),))

    def test_empty_rejected(self, ternary):
        with pytest.raises(ValueError, match="at least the 0-th moment"):
            MomentSequence(weights=ternary, kind="raw", values=())

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


#: Sequences whose large denominators print from the kernel's chain.
CHAINED = [
    (exact_moments, "2/9,2/9,1/3,2/9", 133),
    (shifted_moments, "1/5,1/10,2/5,1/10,1/5", 150),  # the stride-2 chain
]


class TestRendering:
    """Denominators printed from the kernel's chain against value-by-value rendering."""

    @pytest.mark.parametrize("w,kind,m_max", render_sweep())
    def test_equals_per_value(self, w, kind, m_max):
        ms = (exact_moments if kind == "raw" else shifted_moments)(w, m_max)
        if len(set(w.weights)) > 1:  # uniform weights: Lebesgue, small denominators
            assert max(v.denominator for v in ms.values) >= 10**640
        assert ms.to_csv() == moments_csv(ms)
        assert ms.to_json() == moments_json(ms)

    @pytest.mark.parametrize("kernel,weights,m_max", CHAINED)
    def test_large_denominators_skip_format_int(self, monkeypatch, kernel, weights, m_max):
        ms = kernel(parse_weights(weights), m_max)
        large = {v.denominator for v in ms.values if v.denominator >= 10**640}
        calls = []
        real = moments.format_int
        monkeypatch.setattr(moments, "format_int", lambda v: calls.append(v) or real(v))
        ms.to_csv()
        assert large and not large & set(calls)

    @pytest.mark.parametrize("kernel,weights,m_max", CHAINED)
    def test_computed_sequence_reads_its_own_chain(self, monkeypatch, kernel, weights, m_max):
        ms = kernel(parse_weights(weights), m_max)

        def rebuilt(*args):
            raise AssertionError("the chain was rebuilt from the weights")

        monkeypatch.setattr(moments, "_chain", rebuilt)
        assert ms.to_csv() == moments_csv(ms)
        assert ms.to_json() == moments_json(ms)

    @pytest.mark.parametrize("kernel,weights,m_max", CHAINED)
    def test_copies_render_alike(self, kernel, weights, m_max):
        # A copy has no chain, so every denominator goes through format_int.
        ms = kernel(parse_weights(weights), m_max)
        for other in (copy.copy(ms), copy.deepcopy(ms), pickle.loads(pickle.dumps(ms)),
                      MomentSequence(ms.weights, ms.kind, ms.values)):
            assert not hasattr(other, "_factors") and other == ms
            assert other.to_csv() == ms.to_csv()
            assert other.to_json() == ms.to_json()

    @pytest.mark.parametrize("kind", ["raw", "shifted"])
    def test_hand_built_off_chain(self, kind):
        w = parse_weights("2/9,2/9,1/3,2/9")
        n = w.n_branches
        offsets, q = (range(n), 1) if kind == "raw" else (range(1 - n, n, 2), 2)
        chain = _self_similar_moments(w, offsets, 120, q)[1]
        values = [F(1)] + [F(1, 10**700 + 1), F(-3, 7 * 10**650), F(0)] * 30
        values += [F(1, chain[91]), F(5, 3 * chain[92]), F(1, chain[93] // 2 + 1)]
        values += [F(7, chain[m] // 3) for m in range(94, 121)]
        ms = MomentSequence(w, kind, tuple(values))
        assert ms.to_csv() == moments_csv(ms)
        assert ms.to_json() == moments_json(ms)
        assert ms.to_csv().split("\n")[2] == "1,1," + "1" + "0" * 699 + "1"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="interpreter without an int/str digit limit")
    def test_strictest_digit_limit(self):
        sequences = [exact_moments(parse_weights("2/9,2/9,1/3,2/9"), 133),
                     shifted_moments(parse_weights("1/5,1/10,2/5,1/10,1/5"), 150)]
        expected = [(moments_csv(ms), moments_json(ms)) for ms in sequences]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            got = [(ms.to_csv(), ms.to_json()) for ms in sequences]
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(previous)
        assert got == expected
