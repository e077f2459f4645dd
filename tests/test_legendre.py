"""Orthogonal polynomial bases built from exact moments."""
from __future__ import annotations

import json
import math
from decimal import Context, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantor_measures import (
    FloatOverflow,
    InsufficientMoments,
    NotPalindromic,
    OrthoBasis,
    OutOfRange,
    ZeroNorm,
    WeightVector,
    eval_poly,
    exact_moments,
    grid_csv,
    inner_product,
    monic_basis_general,
    monic_basis_symmetric,
    parse_weights,
)
from cantor_measures.rational import parse_rational

from conftest import oracle_sweep, weight_vectors_st
from oracles import chebyshev_basis, grid_values_exact

F = Fraction


def compose_one_minus_x(poly):
    """Coefficients of p(1 - x), computed independently of the package."""
    out = [F(0)] * len(poly)
    for i, c in enumerate(poly):
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * (-1) ** j
    return tuple(out)


class TestInnerProduct:
    def test_unit_mass(self, ternary):
        ms = exact_moments(ternary, 2)
        assert inner_product((1,), (1,), ms) == 1

    def test_centered_square_ternary(self, ternary):
        ms = exact_moments(ternary, 2)
        assert inner_product((F(-1, 2), 1), (F(-1, 2), 1), ms) == F(1, 8)

    def test_centered_vs_constant_uniform(self, lebesgue3):
        ms = exact_moments(lebesgue3, 2)
        assert inner_product((F(-1, 2), 1), (1,), ms) == 0

    def test_zero_coefficients_skipped(self, ternary):
        ms = exact_moments(ternary, 3)
        assert inner_product((0, 1), (0, 0, 1), ms) == ms.values[3] == F(5, 16)

    def test_insufficient_moments(self, ternary):
        ms = exact_moments(ternary, 2)
        with pytest.raises(InsufficientMoments):
            inner_product((0, 0, 1), (0, 1), ms)


class TestSymmetricBasis:
    def test_ternary_degree_two(self, ternary):
        basis = monic_basis_symmetric(ternary, 2)
        assert basis.polys[2] == (F(1, 8), F(-1), F(1))
        assert basis.norms_sq[0] == 1
        assert basis.norms_sq[1] == F(1, 8)

    def test_uniform_matches_shifted_legendre(self, lebesgue3):
        basis = monic_basis_symmetric(lebesgue3, 2)
        assert basis.polys[2] == (F(1, 6), F(-1), F(1))
        assert basis.norms_sq[1] == F(1, 12)

    @given(weight_vectors_st(palindromic=True, interior=True))
    @settings(max_examples=30)
    def test_first_degree_always_centered(self, w):
        basis = monic_basis_symmetric(w, 1)
        assert basis.polys[1] == (F(-1, 2), F(1))

    def test_rejects_non_palindromic(self):
        with pytest.raises(NotPalindromic):
            monic_basis_symmetric(WeightVector([F(2, 3), F(1, 3)]), 2)

    def test_zero_norm_for_central_dirac(self):
        with pytest.raises(ZeroNorm):
            monic_basis_symmetric(WeightVector([0, 1, 0]), 1)

    @given(weight_vectors_st(palindromic=True, interior=True), st.integers(1, 6))
    @settings(max_examples=25)
    def test_recurrence_ratio_consistency(self, w, d):
        basis = monic_basis_symmetric(w, d)
        ms = exact_moments(w, 2 * d)
        for n in range(1, d + 1):
            assert (
                inner_product(basis.polys[n], basis.polys[n], ms)
                == basis.norms_sq[n]
            )

    @given(weight_vectors_st(palindromic=True, interior=True), st.integers(1, 6))
    @settings(max_examples=25)
    def test_parity_alternates(self, w, d):
        basis = monic_basis_symmetric(w, d)
        for n, poly in enumerate(basis.polys):
            reflected = compose_one_minus_x(poly)
            expected = tuple(c if n % 2 == 0 else -c for c in poly)
            assert reflected == expected


class TestGeneralBasis:
    def test_matches_symmetric_on_palindromic(self, ternary):
        assert monic_basis_general(ternary, 3) == monic_basis_symmetric(ternary, 3)

    def test_two_branch_mean(self):
        basis = monic_basis_general(WeightVector([F(2, 3), F(1, 3)]), 1)
        assert basis.polys[1] == (F(-1, 3), F(1))

    def test_dirac_zero_norm(self):
        with pytest.raises(ZeroNorm):
            monic_basis_general(WeightVector([0, 1]), 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_dirac_at_zero(self, n):
        # The only raw vector whose moment kernel runs at stride 2.
        w = WeightVector([1] + [0] * (n - 1))
        assert monic_basis_general(w, 0).polys == ((F(1),),)
        with pytest.raises(ZeroNorm, match="degree 1"):
            monic_basis_general(w, 3)

    @given(weight_vectors_st(interior=True), st.integers(1, 5))
    @settings(max_examples=25)
    def test_orthogonal_to_lower_monomials(self, w, d):
        # Interior vectors have infinite support, so no ZeroNorm can occur.
        ms = exact_moments(w, 2 * d)
        basis = monic_basis_general(w, d)
        for n in range(d + 1):
            for j in range(n):
                monomial = tuple(F(0) for _ in range(j)) + (F(1),)
                assert inner_product(basis.polys[n], monomial, ms) == 0

    def test_degree_16_orthogonal_to_lower_monomials(self):
        # The Chebyshev recurrence never calls inner_product, so this check
        # against the bilinear moment form is independent of it.
        w = parse_weights("1/5,3/10,1/10,2/5")
        ms = exact_moments(w, 32)
        basis = monic_basis_general(w, 16)
        for n, poly in enumerate(basis.polys):
            for j in range(n):
                monomial = tuple(F(0) for _ in range(j)) + (F(1),)
                assert inner_product(poly, monomial, ms) == 0
            assert inner_product(poly, poly, ms) == basis.norms_sq[n] > 0

    def test_negative_degree_rejected(self, ternary):
        with pytest.raises(OutOfRange):
            monic_basis_general(ternary, -1)

    @given(weight_vectors_st(palindromic=True, interior=True), st.integers(1, 5))
    @settings(max_examples=20)
    def test_cross_method_equality(self, w, d):
        assert monic_basis_general(w, d) == monic_basis_symmetric(w, d)

    @given(weight_vectors_st(interior=True), st.integers(1, 5))
    @settings(max_examples=20)
    def test_pairwise_orthogonality_exact(self, w, d):
        ms = exact_moments(w, 2 * d)
        basis = monic_basis_general(w, d)
        for i in range(d + 1):
            for j in range(i):
                assert inner_product(basis.polys[i], basis.polys[j], ms) == 0


class TestEvalPoly:
    def test_centered_linear_root(self):
        assert eval_poly((F(-1, 2), F(1)), F(1, 2)) == 0

    def test_ternary_quadratic_endpoints(self, ternary):
        poly = monic_basis_symmetric(ternary, 2).polys[2]
        assert eval_poly(poly, 0) == F(1, 8)
        assert eval_poly(poly, 1) == F(1, 8)

    def test_float_path(self):
        value = eval_poly((F(1, 8), F(-1), F(1)), 0.5)
        assert isinstance(value, float)
        assert value == pytest.approx(-0.125)


#: Relative accuracy, against ``max(1, |value|)``, of every grid value.
GRID_TOLERANCE = Decimal("1e-12")


def grid_columns(basis, n_points):
    """The columns ``x, p0, ..., pd`` of :func:`grid_csv`, parsed back to floats."""
    lines = grid_csv(basis, n_points).splitlines()[1:]
    return list(zip(*([float(v) for v in line.split(",")] for line in lines)))


def assert_grid_accurate(basis, n_points):
    """Every value ``grid_csv`` prints is within ``1e-12 * max(1, |exact|)``
    of exact rational evaluation over a decimal square root of the norm."""
    lines = grid_csv(basis, n_points).splitlines()[1:]
    exact = grid_values_exact(basis, n_points)
    assert len(lines) == len(exact) == n_points
    for i, (line, want_row) in enumerate(zip(lines, exact)):
        got_row = line.split(",")[1:]
        assert len(got_row) == len(want_row) == len(basis.polys)
        for n, (got, want) in enumerate(zip(got_row, want_row)):
            assert abs(Decimal(got) - want) <= GRID_TOLERANCE * max(1, abs(want)), (i, n)


class TestNormalize:
    """``grid_csv`` scales each monic ``p_n`` to unit norm."""

    def test_constant(self, ternary):
        columns = grid_columns(monic_basis_symmetric(ternary, 3), 11)
        assert columns[1] == (1.0,) * 11

    def test_ternary_linear_scale(self, ternary):
        xs, _, p1 = grid_columns(monic_basis_symmetric(ternary, 1), 21)
        root8 = math.sqrt(8.0)
        assert p1 == pytest.approx([root8 * (x - 0.5) for x in xs], rel=1e-15)

    def test_uniform_linear_scale(self, lebesgue3):
        xs, _, p1 = grid_columns(monic_basis_symmetric(lebesgue3, 1), 21)
        root12 = math.sqrt(12.0)
        assert p1 == pytest.approx([root12 * (x - 0.5) for x in xs], rel=1e-15)

    def test_zero_norm_rejected(self):
        basis = OrthoBasis(polys=((F(1),), (F(0), F(1))), norms_sq=(F(1), F(0)))
        with pytest.raises(ZeroNorm):
            grid_csv(basis, 5)

    def test_norm_below_double_range(self):
        # float(norm_sq) of p_1 is 0.0 here; it used to raise ZeroDivisionError.
        w = WeightVector([1 - F(1, 10**400), F(1, 10**400)])
        with pytest.raises(FloatOverflow, match="p_1"):
            grid_csv(monic_basis_general(w, 2), 3)


class TestGridAccuracy:
    """The grid against exact evaluation of the monomial coefficients.

    The four-branch vector stops at degree 24, where its exact basis
    already takes about a second (degree 40 would take about a minute).
    """

    @pytest.mark.parametrize("weights,degree", [
        (weights, degree)
        for weights in ("1/2,0,1/2", "1/5,3/10,1/10,2/5", "1/3,1/3,1/3", "1/2,1/2")
        for degree in (12, 17, 24, 40)
        if (weights, degree) != ("1/5,3/10,1/10,2/5", 40)
    ])
    def test_within_tolerance(self, weights, degree):
        assert_grid_accurate(monic_basis_general(parse_weights(weights), degree), 25)

    def test_lebesgue_endpoint(self):
        # The normalized shifted Legendre polynomials have p_n(1) = sqrt(2n + 1).
        basis = monic_basis_general(parse_weights("1/2,1/2"), 40)
        exact = grid_values_exact(basis, 2)[-1]
        for n, (got, want) in enumerate(zip(grid_columns(basis, 2)[1:], exact)):
            assert abs(want - Context(prec=60).sqrt(2 * n + 1)) < Decimal("1e-50")
            assert got[-1] == pytest.approx(math.sqrt(2 * n + 1), rel=1e-12)


class TestOrthoBasisType:
    def test_json_round_trip(self, ternary):
        basis = monic_basis_symmetric(ternary, 4)
        data = json.loads(basis.to_json())
        assert data["degree"] == 4
        polys = [tuple(parse_rational(c) for c in p) for p in data["polys"]]
        assert polys == list(basis.polys)
        assert [parse_rational(v) for v in data["norms_sq"]] == list(basis.norms_sq)

    def test_monicity_enforced(self):
        with pytest.raises(ValueError):
            OrthoBasis(polys=((F(2),),), norms_sq=(F(1),))
        with pytest.raises(ValueError):
            OrthoBasis(polys=((F(1),), (F(1), F(1), F(1))), norms_sq=(F(1), F(1)))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            OrthoBasis(polys=((F(1),), (F(0), F(1))), norms_sq=(F(1),))

    def test_json_round_trip_huge_integers(self, default_int_str_limit):
        # Degree-20 norms of this vector have denominators beyond the
        # 4300-digit int/str limit.
        basis = monic_basis_general(parse_weights("1/5,3/10,1/10,2/5"), 20)
        assert basis.norms_sq[-1].denominator.bit_length() > 4300 * math.log2(10)
        data = json.loads(basis.to_json())
        assert data["degree"] == 20
        polys = [tuple(parse_rational(c) for c in p) for p in data["polys"]]
        assert polys == list(basis.polys)
        assert [parse_rational(v) for v in data["norms_sq"]] == list(basis.norms_sq)

    def test_grid_csv_needs_two_points(self, ternary):
        with pytest.raises(OutOfRange):
            grid_csv(monic_basis_symmetric(ternary, 2), n_points=1)

    def test_grid_csv_shape(self, ternary):
        text = grid_csv(monic_basis_symmetric(ternary, 3), n_points=11)
        lines = text.strip().split("\n")
        assert lines[0] == "x,p0,p1,p2,p3"
        assert len(lines) == 12
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("1,")


class TestAgainstOracles:
    def test_seeded_sweep(self):
        # Bases, norms and the ZeroNorm degree equal the per-entry Fraction
        # Chebyshev algorithm; every grid value is within the tolerance of
        # exact evaluation.
        zero_norms = grids = 0
        for w, d, m in oracle_sweep():
            try:
                expected = chebyshev_basis(w, d)
            except ZeroNorm as exc:
                with pytest.raises(ZeroNorm) as raised:
                    monic_basis_general(w, d)
                assert str(raised.value) == str(exc)
                zero_norms += 1
                continue
            basis = monic_basis_general(w, d)
            assert basis.polys == expected.polys
            assert basis.norms_sq == expected.norms_sq
            if m % 4 == 0:
                n_points = 2 + m // 2
                assert_grid_accurate(basis, n_points)
                grids += 1
        assert zero_norms >= 25 and grids >= 50
