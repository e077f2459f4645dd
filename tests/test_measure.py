"""Weight vectors, Kronecker powers and exact CDF tables."""
from __future__ import annotations

import copy
import json
import math
import pickle
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cantor_measures import (
    CdfTable,
    DepthOverflow,
    MeshMismatch,
    NotASimplexPoint,
    OutOfRange,
    WeightVector,
    cdf_sup_distance,
    cdf_table,
    kronecker_power,
    parse_weights,
)
from cantor_measures.measure import BLOCK_ROWS, _digit_gcds
from cantor_measures.rational import (
    format_int,
    format_rational,
    nearest,
    parse_rational,
    round_up,
)

from conftest import parts_to_weights, random_weight_vector, weight_vectors_st
from oracles import cdf_csv, cdf_json, interval_mass

F = Fraction


def fraction_cdf(w, k):
    """``F(j / N**k)`` for j = 0..N**k as Fraction sums of ``interval_mass``."""
    n = w.n_branches
    values = [F(0)]
    for j in range(n**k):
        digits = [j // n**l % n for l in range(k)]
        values.append(values[-1] + interval_mass(w, digits))
    return values


@st.composite
def same_base_pairs_st(draw, n_max=4):
    n = draw(st.integers(2, n_max))
    return draw(weight_vectors_st(n, n)), draw(weight_vectors_st(n, n))


class TestWeightVector:
    def test_ternary_flags(self):
        w = WeightVector([F(1, 2), 0, F(1, 2)])
        assert w.n_branches == 3
        assert w.is_palindromic

    def test_sum_must_be_one(self):
        with pytest.raises(NotASimplexPoint):
            WeightVector([F(1, 2), F(1, 3)])

    def test_negative_entry_rejected(self):
        with pytest.raises(NotASimplexPoint):
            WeightVector([F(3, 2), F(-1, 2)])

    def test_needs_two_entries(self):
        with pytest.raises(ValueError):
            WeightVector([1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            WeightVector([0.5, 0.5])

    def test_strings_follow_the_cli_grammar(self):
        # Exponent notation used to be read by Fraction(str); "1e1000000"
        # then spent seconds formatting the sum in its error message.
        assert WeightVector(("1/2", "0.5")).weights == (F(1, 2), F(1, 2))
        with pytest.raises(ValueError, match="not a rational"):
            WeightVector(("1e5", "1"))

    @pytest.mark.parametrize(
        "weights", [(10**400_000, 1), (-(10**400_000), 10**400_000 + 1)]
    )
    def test_huge_weight_messages_are_short(self, default_int_str_limit, weights):
        # Both messages used to carry every digit, formatted in quadratic time.
        with pytest.raises(NotASimplexPoint) as info:
            WeightVector(weights)
        assert len(str(info.value)) < 200

    def test_parse(self):
        w = parse_weights("1/2,0,1/2")
        assert w.weights == (F(1, 2), F(0), F(1, 2))
        assert parse_weights(" 1/3 , 1/3 , 1/3 ").is_palindromic

    @pytest.mark.parametrize("text", ["1/2,,1/2", "1/2,1/2,", "1/2,abc", "1/0,1", "1"])
    def test_parse_rejects_malformed_lists(self, text):
        # "1/2,,1/2" used to be read silently as the base-2 vector (1/2, 1/2).
        with pytest.raises(NotASimplexPoint):
            parse_weights(text)

    @given(weight_vectors_st())
    def test_generated_vectors_valid(self, w):
        assert sum(w.weights) == 1
        assert all(a >= 0 for a in w)

    @pytest.mark.parametrize("weights", [(10**4400, 1), (-(10**4400), 10**4400 + 1)])
    def test_messages_past_digit_limit(self, default_int_str_limit, weights):
        # The messages used to format the weights with str(Fraction).
        with pytest.raises(NotASimplexPoint):
            WeightVector(weights)


class TestParseRational:
    @pytest.mark.parametrize("text,value", [
        ("3/4", F(3, 4)), (" -2 ", F(-2)), ("0.25", F(1, 4)), (".5", F(1, 2)), ("5.", F(5)),
    ])
    def test_documented_forms(self, text, value):
        assert parse_rational(text) == value

    def test_decimal_past_digit_limit(self, default_int_str_limit):
        assert parse_rational("0." + "0" * 4999 + "1") == F(1, 10**5000)

    def test_long_inputs_parse_in_subquadratic_time(self, default_int_str_limit):
        # int(Decimal(digits)) took 6.6 s for the first of these.
        n = 400_000
        ones = (10**n - 1) // 9
        cases = [
            ("1" + "0" * n, F(10**n)),
            ("1" * n + "/1", F(ones)),
            ("0." + "1" * n, F(ones, 10**n)),
            ("-" + "7" * n + "/" + "3" * n, F(-7, 3)),
        ]
        for text, value in cases:
            start = time.perf_counter()
            parsed = parse_rational(text)
            assert time.perf_counter() - start < 2.0
            assert parsed == value

    def test_smallest_digit_limit(self):
        # The parser converts at most 640 digits at a time, which the
        # smallest limit setting still allows.
        limited = hasattr(sys, "set_int_max_str_digits")
        if limited:
            previous = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(640)
        try:
            assert parse_rational("-" + "9" * 5000 + ".5") == F(-(10**5001 - 5), 10)
        finally:
            if limited:
                sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("text", ["1e5", "1E-2", "2.5e1", "1e400", "1_0", "1.5_0"])
    def test_other_forms_rejected(self, text):
        # Exponent notation used to build 10**exponent: minutes for "1e100000000".
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)

    @pytest.mark.parametrize("text", [
        "\uff11/\uff12", "\uff10.\uff15",  # fullwidth 1/2, 0.5
        "\u0661/\u0662", "1/\u0662",  # Arabic-Indic digits
        "\u0967/\u0968", "\u0966.\u0969",  # Devanagari digits
        "\u00a01/2", "1/2\u3000", "\u20031",  # no-break, ideographic and em spaces
    ])
    def test_ascii_only(self, text):
        # "\d" and "\s" used to match these, and "１/２" read as 1/2.
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


class TestFormatInt:
    """Digits of any integer, as ``str()`` with no limit gives them."""

    @pytest.mark.parametrize("limit", [640, 4300])
    def test_matches_str(self, limit):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        rng = random.Random(19)
        values = [0, 1, -1, 7, -10]
        # 2126 bits is the 640-digit piece size, 4000 bits about 1200
        # digits, and 14284 bits the 4300-digit default limit.
        for bits in (64, 2125, 2126, 2127, 3999, 4000, 4001, 6000, 14283, 14284, 14285,
                     17600, 40000):
            value = rng.getrandbits(bits) | 1 << (bits - 1)
            values += [value, -value]
        for k in (639, 640, 641, 1204, 1205, 4299, 4300, 4301, 12000):
            values += [10**k, 10**k - 1, -(10**k), 1 - 10**k]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            rendered = [format_int(v) for v in values]
            assert sys.get_int_max_str_digits() == limit
            sys.set_int_max_str_digits(0)
            expected = [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(previous)
        assert rendered == expected

    def test_at_the_cached_split_points(self):
        # A value splits at the largest cached 10**(640 * 2**j) below it.
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        values = [0, 2**2126]
        for k in (640, 1280, 2560):
            values += [10**k - 1, 10**k, 10**k + 1]
        values += [-v for v in values]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert [format_int(v) for v in values] == [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(previous)


@st.composite
def near_doubles_st(draw):
    """A double, exact or moved by ``k * 2**-e``: values on, just above and just below it."""
    f = draw(st.floats(min_value=-1e300, max_value=1e300))
    return F(f) + draw(st.integers(-2, 2)) * F(1, 2 ** draw(st.integers(0, 1200)))


class TestRounding:
    """The two rules that turn an exact value into a double."""

    @given(st.one_of(near_doubles_st(), st.fractions(min_value=-10**9, max_value=10**9)))
    def test_round_up_is_the_least_double_at_least_x(self, x):
        up = round_up(x)
        assert F(up) >= x > F(math.nextafter(up, -math.inf))

    @given(st.integers(-2**300, 2**300), st.integers(0, 2**80), st.integers(1, 2**300))
    @example(3**34, 1, 2**68)
    @example(3**34 - 1, 1, 2**68)
    def test_nearest_is_decided_when_both_ends_round_alike(self, lo, width, d):
        low, high = float(F(lo, d)), float(F(lo + width, d))
        value = nearest(lo, lo + width, d)
        if low == high:
            assert value == low and math.copysign(1, value) == math.copysign(1, low)
        else:
            assert value is None

    def test_tie_of_three_quarters_to_the_34th(self):
        # The Dirac mass at 1/2 of 0,1,0 has I_34 * (3/2)**34 = (3/4)**34 =
        # 3**34 / 2**68, and 3**34 has 54 bits: halfway between two doubles.
        # The tie rounds down, to even, and any value above it rounds up.
        tie = 3**34
        assert tie.bit_length() == 54
        assert nearest(tie, tie, 2**68) == float(F(tie, 2**68))
        assert nearest(tie, tie + 1, 2**68) is None
        assert nearest(tie - 1, tie, 2**68) == float(F(tie, 2**68))


class TestRandomWeightVector:
    """The seeded-sweep helper of ``conftest``."""

    @pytest.mark.parametrize("n,options", [
        (2, {"zero_last": True}),
        (2, {"zero_last": True, "palindromic": True}),
        (3, {"zero_last": True, "palindromic": True}),
        (2, {"zero_last": True, "palindromic": True, "interior": False}),
        (1, {}),
        (4, {"max_part": 0, "interior": False}),
    ])
    def test_impossible_draws_raise(self, n, options):
        # These used to loop forever: no draw can pass.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no weight vector"):
            random_weight_vector(random.Random(0), n, **options)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n,options", [
        (2, {"zero_last": True, "interior": False}),
        (3, {"zero_last": True, "palindromic": True, "interior": False}),
        (3, {"zero_last": True}),
        (4, {"zero_last": True, "palindromic": True}),
    ])
    def test_possible_draws_return(self, n, options):
        w = random_weight_vector(random.Random(0), n, **options)
        assert w.n_branches == n and w.weights[-1] == 0


class TestKroneckerPower:
    def test_identity_at_depth_one(self):
        w = parse_weights("1/2,0,1/2")
        assert kronecker_power(w, 1) == w

    def test_ternary_depth_two(self):
        w = parse_weights("1/2,0,1/2")
        q = F(1, 4)
        expected = (q, 0, q, 0, 0, 0, q, 0, q)
        assert kronecker_power(w, 2).weights == tuple(F(e) for e in expected)

    def test_dirac_stays_dirac(self):
        w = WeightVector([1, 0])
        beta = kronecker_power(w, 3)
        assert beta.weights == (F(1),) + (F(0),) * 7

    def test_overflow_guard(self):
        w = parse_weights("1/2,1/2")
        with pytest.raises(DepthOverflow):
            kronecker_power(w, 23)

    @given(weight_vectors_st(), st.integers(1, 4))
    def test_entries_are_digit_products(self, w, k):
        beta = kronecker_power(w, k)
        assert sum(beta.weights) == 1
        n = w.n_branches
        for index in (0, n**k - 1, n**k // 2):
            digits = []
            rem = index
            for _ in range(k):
                digits.append(rem % n)
                rem //= n
            assert beta.weights[index] == interval_mass(w, digits)


class TestIntervalMass:
    def test_single_digit(self):
        w = parse_weights("1/2,0,1/2")
        assert interval_mass(w, [0]) == F(1, 2)

    def test_zero_weight_annihilates(self):
        w = parse_weights("1/2,0,1/2")
        assert interval_mass(w, [1, 2]) == 0

    def test_uniform_triple(self):
        w = parse_weights("1/3,1/3,1/3")
        assert interval_mass(w, [2, 2, 2]) == F(1, 27)

    def test_bad_digit(self):
        w = parse_weights("1/2,1/2")
        with pytest.raises(OutOfRange):
            interval_mass(w, [0, 2])


class TestCdfTable:
    def test_ternary_depth_one(self):
        t = cdf_table(parse_weights("1/2,0,1/2"), 1)
        assert t.points == (
            (F(0), F(0)),
            (F(1, 3), F(1, 2)),
            (F(2, 3), F(1, 2)),
            (F(1), F(1)),
        )

    def test_lebesgue_is_identity(self):
        t = cdf_table(parse_weights("1/3,1/3,1/3"), 1)
        assert [f for _, f in t.points] == [F(0), F(1, 3), F(2, 3), F(1)]

    def test_dirac_step(self):
        t = cdf_table(WeightVector([0, 1]), 2)
        values = [f for _, f in t.points]
        assert values == [0, 0, 0, 0, 1]

    @given(weight_vectors_st(), st.integers(1, 4))
    def test_endpoints_and_monotone(self, w, k):
        t = cdf_table(w, k)
        values = [f for _, f in t.points]
        assert values[0] == 0 and values[-1] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(weight_vectors_st(n_max=4), st.integers(1, 3))
    def test_telescoping_increments(self, w, k):
        # Each grid-cell increment is the digit product of its address.
        t = cdf_table(w, k)
        n = w.n_branches
        values = [f for _, f in t.points]
        for j in range(n**k):
            digits = []
            rem = j
            for _ in range(k):
                digits.append(rem % n)
                rem //= n
            assert values[j + 1] - values[j] == interval_mass(w, digits)

    @given(weight_vectors_st(), st.integers(1, 4))
    def test_numerators_are_cumulative_masses(self, w, k):
        t = cdf_table(w, k)
        assert [F(s, t.denominator) for s in t.numerators] == fraction_cdf(w, k)

    @given(weight_vectors_st(n_max=4), st.integers(1, 3))
    def test_kronecker_consistency(self, w, k):
        direct = cdf_table(w, k)
        flat = cdf_table(kronecker_power(w, k), 1)
        assert direct.points == flat.points

    @given(weight_vectors_st(n_max=3), st.integers(1, 2), st.integers(1, 2))
    def test_refinement_restriction(self, w, k, extra):
        # The deeper table passes through every point of the shallower one.
        coarse = cdf_table(w, k)
        fine = cdf_table(w, k + extra)
        step = w.n_branches**extra
        for j, (x, f) in enumerate(coarse.points):
            assert fine.points[j * step] == (x, f)

    @given(weight_vectors_st(palindromic=True), st.integers(1, 3))
    def test_palindromic_symmetry(self, w, k):
        t = cdf_table(w, k)
        values = [f for _, f in t.points]
        size = len(values) - 1
        for j in range(size + 1):
            assert values[j] + values[size - j] == 1

    @given(st.integers(2, 6), st.integers(1, 3))
    def test_uniform_weights_linear(self, n, k):
        w = WeightVector([F(1, n)] * n)
        t = cdf_table(w, k)
        for j, (x, f) in enumerate(t.points):
            assert f == F(j, n**k) == x


class TestSupDistance:
    def test_identical_tables(self, ternary):
        t = cdf_table(ternary, 2)
        assert cdf_sup_distance(t, t) == 0

    def test_ternary_vs_uniform(self, ternary, lebesgue3):
        d = cdf_sup_distance(cdf_table(ternary, 1), cdf_table(lebesgue3, 1))
        assert d == F(1, 6)

    def test_disjoint_supports(self):
        a = parse_weights("0,1/2,1/2")
        b = parse_weights("1/2,1/2,0")
        d = cdf_sup_distance(cdf_table(a, 1), cdf_table(b, 1))
        assert d == F(1, 2)

    @given(same_base_pairs_st(), st.integers(1, 3))
    def test_matches_fraction_max(self, pair, k):
        wa, wb = pair
        d = cdf_sup_distance(cdf_table(wa, k), cdf_table(wb, k))
        assert d == max(abs(a - b) for a, b in zip(fraction_cdf(wa, k), fraction_cdf(wb, k)))

    def test_mesh_mismatch(self, ternary):
        with pytest.raises(MeshMismatch):
            cdf_sup_distance(cdf_table(ternary, 1), cdf_table(ternary, 2))

    @given(
        weight_vectors_st(n_min=3, n_max=3, interior=True),
        weight_vectors_st(n_min=3, n_max=3, interior=True),
        st.integers(1, 3),
    )
    def test_lipschitz_in_weights(self, wa, wb, k):
        d = cdf_sup_distance(cdf_table(wa, k), cdf_table(wb, k))
        delta = max(abs(a - b) for a, b in zip(wa, wb))
        assert d <= k * 3**k * delta


class TestDepthCap:
    def test_default(self):
        from cantor_measures import DEPTH_CAP

        assert DEPTH_CAP == 3**14

    # 2**20000 has more digits than the int/str limit: its error message used
    # to raise that limit's ValueError instead of DepthOverflow.
    @pytest.mark.parametrize("n_base,depth", [(2, 23), (3, 15), (5, 10), (2, 20_000)])
    def test_past_cap_rejected(self, default_int_str_limit, n_base, depth):
        w = WeightVector((F(1, n_base),) * n_base)
        tracemalloc.start()
        try:
            with pytest.raises(DepthOverflow):
                cdf_table(w, depth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # raised before building a table

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_below_one_rejected(self, ternary, depth):
        with pytest.raises(OutOfRange):
            cdf_table(ternary, depth)


class TestSerialization:
    def test_csv_shape(self, ternary):
        text = cdf_table(ternary, 1).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,F"
        assert lines[1] == "0/1,0/1"
        assert lines[2] == "1/3,1/2"
        assert len(lines) == 5

    def test_json_round_trip(self, ternary):
        t = cdf_table(ternary, 3)
        data = json.loads(t.to_json())
        assert data["depth"] == 3
        points = [(parse_rational(x), parse_rational(f)) for x, f in data["points"]]
        assert points == list(t.points)

    @given(weight_vectors_st(), st.integers(1, 3))
    def test_rendering_matches_fraction_pairs(self, w, k):
        t = cdf_table(w, k)
        cells = w.n_branches**k
        rows = [[format_rational(F(j, cells)), format_rational(f)]
                for j, f in enumerate(fraction_cdf(w, k))]
        assert t.to_csv() == "x,F\n" + "".join(f"{x},{f}\n" for x, f in rows)
        assert t.to_json() == json.dumps({"depth": k, "points": rows})

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_canonical_round_trip(self, k):
        # Reduced values such as 1/2 = 3/6 have denominators below 6**k.
        t = cdf_table(parse_weights("1/2,1/3,1/6"), k)
        assert t.denominator == 6**k
        rows = json.loads(t.to_json())["points"]
        assert [parse_rational(f) for _, f in rows] == [f for _, f in t.points]

    @given(weight_vectors_st(n_max=6), st.integers(1, 4))
    def test_tables_have_no_common_factor(self, w, k):
        # A is the lcm of the weight denominators, so no prime of A**k
        # divides every numerator.
        t = cdf_table(w, k)
        assert math.gcd(t.denominator, *t.numerators) == 1

    def test_common_factor_renders_reduced(self):
        scaled, reduced = CdfTable(1, 2, (0, 2, 4), 4), CdfTable(1, 2, (0, 1, 2), 2)
        assert scaled.to_csv() == reduced.to_csv() == "x,F\n0/1,0/1\n1/2,1/2\n1/1,1/1\n"
        assert scaled.to_json() == reduced.to_json()
        assert scaled.points == reduced.points

    def test_points_view(self, ternary):
        t = cdf_table(ternary, 2)
        assert len(t.points) == 10
        assert t.points[-1] == (F(1), F(1))
        assert t.points[-10] == t.points[0] == (F(0), F(0))
        assert t.points[1] == (F(1, 9), F(1, 4))
        for index in (10, -11):
            with pytest.raises(IndexError):
                t.points[index]

    def test_points_not_equal_to_a_non_sequence(self, ternary):
        points = cdf_table(ternary, 1).points
        assert points.__eq__(5) is NotImplemented
        assert (points == 5) is False
        assert points != 5

    @pytest.mark.parametrize("numerators,denominator", [((0, 1), 1), ((0, 1, 1, 2), 0)])
    def test_shape_checked(self, numerators, denominator):
        # Depth 1 in base 3 needs 4 numerators and a positive denominator.
        with pytest.raises(ValueError, match="do not form a depth-1 base-3 table"):
            CdfTable(1, 3, numerators, denominator)


@st.composite
def rendered_tables_st(draw, max_cells=2 * BLOCK_ROWS):
    """A CDF table of base 2..7 with at most ``max_cells`` cells."""
    w = draw(st.one_of(
        weight_vectors_st(n_min=2, n_max=7),
        st.sampled_from(["1,0,0", "0,1", "1/1000,999/1000", "1/4,0,0,3/4",
                         "1/3,0,1/6,0,1/2,0"]).map(parse_weights),
    ))
    n = w.n_branches
    k = draw(st.integers(1, max(k for k in range(1, max_cells.bit_length())
                                  if n**k <= max_cells)))
    return cdf_table(w, k)


class TestBlockRendering:
    """Block rendering matches the per-row oracle byte for byte."""

    @given(rendered_tables_st())
    @example(cdf_table(parse_weights("0,1"), 12))
    @example(cdf_table(parse_weights("1,0,0"), 5))
    @example(cdf_table(parse_weights("1/1000,999/1000"), 12))
    @example(cdf_table(parse_weights("1/4,1/4,1/4,1/4"), 6))
    @example(cdf_table(parse_weights("1/6,1/12,1/4,1/12,1/3,1/12"), 4))
    @example(cdf_table(parse_weights("1/5,0,4/5"), 8))
    @example(cdf_table(parse_weights("0,1/3,2/3"), 6))
    @example(cdf_table(parse_weights("1/2,1/2,0"), 6))
    @example(cdf_table(parse_weights("1/6,5/6"), 12))
    @example(cdf_table(parse_weights("1/4,1/2,1/4"), 6))
    def test_matches_row_oracle(self, t):
        assert t.to_csv() == cdf_csv(t)
        assert t.to_json() == cdf_json(t)

    @pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1])
    def test_block_boundaries(self, rows):
        # One-level tables of N = rows - 1 branches, prime or composite,
        # with zero weights anywhere.
        w = random_weight_vector(random.Random(rows), rows - 1, interior=False)
        t = cdf_table(w, 1)
        assert len(t.points) == rows
        assert t.to_csv() == cdf_csv(t)
        assert t.to_json() == cdf_json(t)
        assert json.loads(t.to_json())["points"][-1] == ["1/1", "1/1"]

    @pytest.mark.parametrize("a", [Fraction(1, 10**1500),
                                   Fraction(10**1499, 3 * 10**1499 + 1)])
    def test_past_int_str_digit_limit(self, default_int_str_limit, a):
        # F's denominator, and for the second vector also reduced numerators
        # such as F(1/8) = a**3, have more digits than str() converts by default.
        t = cdf_table(WeightVector([a, 1 - a]), 3)
        assert t.denominator == a.denominator**3
        with pytest.raises(ValueError):
            str(t.denominator)
        assert t.to_csv() == cdf_csv(t)
        assert t.to_json() == cdf_json(t)

    @pytest.mark.parametrize("text,k", [("1/2,0,1/2", 7), ("1/5,0,4/5", 5),
                                        ("1/4,1/2,1/4", 5)])
    def test_copies_render_alike(self, text, k):
        # A copy has no integer weights, so it takes one gcd per row.
        t = cdf_table(parse_weights(text), k)
        for other in (copy.copy(t), pickle.loads(pickle.dumps(t)),
                      CdfTable(t.depth, t.n_base, t.numerators, t.denominator)):
            assert not hasattr(other, "_weights")
            assert other == t and hash(other) == hash(t) and repr(other) == repr(t)
            assert other.to_csv() == t.to_csv()
            assert other.to_json() == t.to_json()


def _is_prime_power(a: int) -> bool:
    q = next(q for q in range(2, a + 1) if a % q == 0)
    while a % q == 0:
        a //= q
    return a == 1


def _digit_gcd_sweep(seed: int = 29) -> list[tuple[str, CdfTable]]:
    """Seeded tables over A prime, a prime power or composite, N = 2..6.

    The parts of A are drawn with a zero weight first, inside, last or
    nowhere; other parts may be zero as well.  The weights are then reduced,
    so the table's own A divides the one drawn.
    """
    rng = random.Random(seed)
    cases = [("1,0,0", cdf_table(parse_weights("1,0,0"), 4))]
    for a in (2, 3, 5, 7, 11, 4, 8, 9, 27, 6, 10, 12, 1000):
        for n in range(2, 7):
            for zero in ("first", "inside", "last", None):
                if zero == "inside" and n < 3:
                    continue
                free = list(range(n))
                if zero == "first":
                    free.remove(0)
                elif zero == "inside":
                    free.remove(rng.randrange(1, n - 1))
                elif zero == "last":
                    free.remove(n - 1)
                cuts = sorted(rng.randint(0, a) for _ in range(len(free) - 1))
                parts = [0] * n
                for at, lo, hi in zip(free, [0, *cuts], [*cuts, a]):
                    parts[at] = hi - lo
                k = rng.randint(1, max(k for k in range(1, 9) if n**k <= 1000))
                cases.append((f"{parts} over {a}", cdf_table(parts_to_weights(parts), k)))
    return cases


class TestDigitGcds:
    """The gcds of F from the digit structure equal one ``math.gcd`` per row."""

    def test_sweep_matches_math_gcd(self):
        taken = {"prime power": 0, "composite": 0}
        for label, t in _digit_gcd_sweep():
            weights = t._weights
            a = sum(weights)
            assert a**t.depth == t.denominator, label
            gcds = _digit_gcds(weights, t.depth)
            coprime = all(math.gcd(p, a) == 1 for p in weights if p)
            if a > 1 and _is_prime_power(a):
                # The rule covers every prime or prime-power A.
                assert (gcds is not None) == coprime, label
            elif not coprime:
                assert gcds is None, label
            if gcds is not None:
                assert gcds == [math.gcd(s, t.denominator) for s in t.numerators], label
                if a > 1:
                    taken["prime power" if _is_prime_power(a) else "composite"] += 1
        assert min(taken.values()) >= 10, taken

    @pytest.mark.parametrize("text", ["1/2,0,1/2", "1/1000,999/1000", "1/6,5/6"])
    def test_covered(self, text):
        t = cdf_table(parse_weights(text), 6)
        assert _digit_gcds(t._weights, 6) == [math.gcd(s, t.denominator) for s in t.numerators]

    @pytest.mark.parametrize("text,k", [("1/4,1/2,1/4", 1), ("1/6,1/3,1/2", 1),
                                        ("1/6,1/6,1/6,1/6,1/6,1/6", 2)])
    def test_declined(self, text, k):
        # A weight sharing a prime with A, and a composite A whose gcds at
        # depth 1 (2 of 6) leave a prime of 6 out of 6 / 2.
        t = cdf_table(parse_weights(text), k)
        assert _digit_gcds(t._weights, k) is None
