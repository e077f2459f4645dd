"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Each test prints a single ``CRITERION n PASS`` line on success (run with
``pytest -s`` to see them); a failing assertion marks the criterion failed.
Random sweeps are seeded and therefore reproducible.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import cantor_measures.fast as fast_module
from cantor_measures import (
    cdf_table,
    check_lipschitz,
    exact_moments,
    inner_product,
    kronecker_power,
    monic_basis_general,
    monic_basis_symmetric,
    parse_weights,
    shifted_moments,
)
from cantor_measures.fast import fast_moments, mgf_eval

from conftest import random_weight_vector
from oracles import interval_mass, left_endpoint_sum, moments_at_depth, palindromic_odd_moment

F = Fraction

TERNARY = parse_weights("1/2,0,1/2")
TERNARY_MOMENTS = (F(1), F(1, 2), F(3, 8), F(5, 16), F(87, 320))

# Fixture threshold for the ternary scaled-decay check, frozen from an
# exact-arithmetic run: inf over 1 <= m <= 256 of I_m * m**log3(2) is 0.5,
# attained at m = 1.
TERNARY_DECAY_THRESHOLD = 0.4

_SWEEP_DEPTHS = (2, 4, 8, 16)


def _certified_sweep():
    """Shared data for criteria 2 and 3: 50 seeded interior vectors."""
    rng = random.Random(20260810)
    sweep = []
    for _ in range(50):
        n = rng.choice([2, 3, 5])
        w = random_weight_vector(rng, n, interior=True)
        exact = [float(v) for v in exact_moments(w, 64).values]
        by_depth = {k: moments_at_depth(w, 64, k).moments for k in _SWEEP_DEPTHS}
        sweep.append((w, exact, by_depth))
    return sweep


@pytest.fixture(scope="module")
def certified_sweep():
    return _certified_sweep()


def test_criterion_01_exact_ternary_moments_and_oracle():
    start = time.perf_counter()
    ms = exact_moments(TERNARY, 4)
    assert ms.values == TERNARY_MOMENTS
    for m in range(5):
        lower = left_endpoint_sum(TERNARY, 12, m)
        gap = (1 + F(1, 3**12)) ** m - 1
        assert lower <= ms.values[m] <= lower + gap
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f} s"
    print(f"CRITERION 1 PASS: exact ternary moments + depth-12 oracle "
          f"({elapsed:.3f} s)")


def test_criterion_02_certified_fast_error_bound(certified_sweep):
    checks = 0
    for w, exact, by_depth in certified_sweep:
        n = w.n_branches
        for k in _SWEEP_DEPTHS:
            computed = by_depth[k]
            for m in range(2, 65):
                bound = math.e * m * math.sqrt(m - 1) / n**k
                assert abs(exact[m] - computed[m]) <= bound, (
                    f"violated at w={w}, m={m}, k={k}"
                )
                checks += 1
    print(f"CRITERION 2 PASS: certified bound held in {checks} comparisons")


def test_criterion_03_monotone_convergence(certified_sweep):
    for w, exact, by_depth in certified_sweep:
        upper = np.asarray(exact) + 1e-12
        previous = None
        for k in _SWEEP_DEPTHS:
            computed = by_depth[k]
            assert np.all(computed <= upper), f"exceeds exact at w={w}, k={k}"
            if previous is not None:
                assert np.all(computed >= previous - 1e-12), (
                    f"not monotone at w={w}, k={k}"
                )
            previous = computed
    print("CRITERION 3 PASS: partial-product moments increase to the exact ones")


def test_criterion_04_performance_and_step_count(monkeypatch):
    calls = []
    original = fast_module.series_mul_trunc

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fast_module, "series_mul_trunc", counting)
    start = time.perf_counter()
    result = fast_moments(TERNARY, 4096, 1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f} s"
    k_required = fast_module.depth_for_eps(3, 4096, 1e-10)
    assert result.depth_used == 1 << math.ceil(math.log2(k_required))
    assert len(calls) == math.ceil(math.log2(k_required))
    assert result.moments[0] == 1.0 and np.all(np.isfinite(result.moments))
    tail = int(np.isinf(result.certified_bound).sum())
    print(f"CRITERION 4 PASS: m=4096, indices 0-{fast_module.MAX_FINITE_INDEX} in "
          f"{elapsed:.3f} s with {len(calls)} truncated multiplications; the {tail} "
          f"indices above {fast_module.MAX_FINITE_INDEX} are 0 with an inf bound")


def test_criterion_05_cdf_identities():
    rng = random.Random(5)
    for _ in range(12):
        n = rng.choice([2, 3, 5])
        k = rng.randint(1, 5)
        w = random_weight_vector(rng, n, interior=False)
        table = cdf_table(w, k)
        values = [f for _, f in table.points]
        for j in range(n**k):
            digits = []
            rem = j
            for _ in range(k):
                digits.append(rem % n)
                rem //= n
            assert values[j + 1] - values[j] == interval_mass(w, digits)
        assert cdf_table(kronecker_power(w, k), 1).points == table.points
    for _ in range(8):
        n = rng.choice([2, 3, 4, 5])
        k = rng.randint(1, 5)
        w = random_weight_vector(rng, n, interior=False, palindromic=True)
        values = [f for _, f in cdf_table(w, k).points]
        size = n**k
        assert all(values[j] + values[size - j] == 1 for j in range(size + 1))
    print("CRITERION 5 PASS: increment, Kronecker and symmetry identities exact")


def test_criterion_06_legendre_orthogonality():
    moments = exact_moments(TERNARY, 20)
    basis = monic_basis_symmetric(TERNARY, 10)
    for i in range(11):
        for j in range(i):
            assert inner_product(basis.polys[i], basis.polys[j], moments) == 0
    assert basis.polys[2] == (F(1, 8), F(-1), F(1))
    uniform = parse_weights("1/3,1/3,1/3")
    assert monic_basis_symmetric(uniform, 2).polys[2] == (F(1, 6), F(-1), F(1))
    assert monic_basis_general(TERNARY, 10) == basis
    print("CRITERION 6 PASS: degree-10 orthogonality exact, both construction paths")


def test_criterion_07_palindromic_odd_moments():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        w = random_weight_vector(rng, n, interior=False, palindromic=True)
        ms = exact_moments(w, 15)
        for m in (1, 3, 5, 7, 9, 11, 13, 15):
            assert palindromic_odd_moment(ms, m) == ms.values[m]
    print("CRITERION 7 PASS: odd-moment identity exact on 20 palindromic vectors")


def test_criterion_08_decay_suite():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 5)
        w = random_weight_vector(rng, n, interior=False, zero_last=True)
        values = exact_moments(w, 64).values
        bound = F(1)
        ratio = F(n - 1, n)
        for m, v in enumerate(values):
            if m:
                bound *= ratio
            assert v <= bound
    gamma = math.log(2) / math.log(3)
    ternary_moments = exact_moments(TERNARY, 256)
    scaled = [float(v) * m**gamma for m, v in enumerate(ternary_moments.values) if m]
    assert min(scaled) > TERNARY_DECAY_THRESHOLD
    for _ in range(10):
        n = rng.randint(2, 6)
        w = random_weight_vector(rng, n, interior=False, palindromic=True)
        shifted = shifted_moments(w, 64)
        for m, v in enumerate(shifted.values):
            assert abs(v) * 2**m <= 1
    print(f"CRITERION 8 PASS: decay bounds exact; ternary scaled infimum "
          f"{min(scaled):.3f} > {TERNARY_DECAY_THRESHOLD}")


def test_criterion_09_lipschitz_bound():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice([2, 3, 5])
        wa = random_weight_vector(rng, n, interior=True)
        wb = random_weight_vector(rng, n, interior=True)
        for k in (1, 2, 3):
            assert check_lipschitz(wa, wb, k).ok
    print("CRITERION 9 PASS: interpolant Lipschitz bound held on 100 random pairs")


def test_criterion_10_mgf_cross_check():
    value = mgf_eval(TERNARY, 1.0, 40)
    moments = exact_moments(TERNARY, 30).values
    series = sum(float(v) / math.factorial(m) for m, v in enumerate(moments))
    tail = sum(1.0 / math.factorial(m) for m in range(31, 60))
    assert abs(value - series) <= 1e-9 + tail
    print(f"CRITERION 10 PASS: partial product {value:.12f} matches the "
          f"moment series within 1e-9 plus tail")
