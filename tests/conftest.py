"""Shared strategies and helpers for the test suite.

Weight vectors are always built from integer parts normalized by their sum,
so every generated vector is an exact simplex point by construction.
"""
from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, settings, strategies as st

import cantor_measures
from cantor_measures import WeightVector

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("package")


def parts_to_weights(parts: list[int]) -> WeightVector:
    total = sum(parts)
    return WeightVector(tuple(Fraction(p, total) for p in parts))


@st.composite
def weight_vectors_st(
    draw,
    n_min: int = 2,
    n_max: int = 5,
    interior: bool = False,
    palindromic: bool = False,
    zero_last: bool = False,
    max_part: int = 9,
):
    n = draw(st.integers(n_min, n_max))
    if palindromic:
        half = draw(
            st.lists(
                st.integers(0, max_part),
                min_size=(n + 1) // 2,
                max_size=(n + 1) // 2,
            )
        )
        parts = half + half[: n // 2][::-1]
    else:
        parts = draw(st.lists(st.integers(0, max_part), min_size=n, max_size=n))
    if zero_last:
        parts[-1] = 0
        if palindromic:
            parts[0] = 0
    total = sum(parts)
    assume(total > 0)
    if interior:
        assume(max(parts) < total)
    return parts_to_weights(parts)


def random_weight_vector(
    rng: random.Random,
    n: int,
    interior: bool = True,
    palindromic: bool = False,
    zero_last: bool = False,
    max_part: int = 9,
) -> WeightVector:
    """Deterministic pseudo-random simplex point for seeded sweeps.

    Raises ``ValueError`` when no draw can pass: fewer than one free
    (possibly nonzero) part, or fewer than two under ``interior``.
    """
    # zero_last fixes the last part, and with palindromic the first as well.
    free = n - zero_last * (1 + palindromic) if max_part > 0 else 0
    if free < 1 + interior:
        raise ValueError(f"no weight vector with n = {n}, interior = {interior}, "
                         f"palindromic = {palindromic}, zero_last = {zero_last}, "
                         f"max_part = {max_part}")
    while True:
        if palindromic:
            half = [rng.randint(0, max_part) for _ in range((n + 1) // 2)]
            parts = half + half[: n // 2][::-1]
        else:
            parts = [rng.randint(0, max_part) for _ in range(n)]
        if zero_last:
            parts[-1] = 0
            if palindromic:
                parts[0] = 0
        total = sum(parts)
        if total == 0:
            continue
        if interior and max(parts) == total:
            continue
        return parts_to_weights(parts)


def oracle_sweep(count: int = 320, seed: int = 20) -> list[tuple[WeightVector, int, int]]:
    """Seeded ``(w, degree, m)`` cases for the checks against the oracles.

    N cycles through 2..5; parts are 0..9, so weights are often zero; every
    other vector has last weight zero (exponential decay regime); every
    tenth is a simplex vertex (Dirac measure, zero norm at degree 1).
    Degrees run to 10 and moment indices to 80.
    """
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = 2 + i % 4
        if i % 10 == 9:
            parts = [0] * n
            parts[rng.randrange(n)] = 1
            w = parts_to_weights(parts)
        else:
            w = random_weight_vector(rng, n, interior=False, zero_last=i % 2 == 0)
        cases.append((w, rng.randint(0, 10), rng.randint(1, 80)))
    return cases


def child_env() -> dict[str, str]:
    """This environment, with the tested package first on ``PYTHONPATH``."""
    src = str(Path(cantor_measures.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def default_int_str_limit():
    """Run a test under Python's default 4300-digit int/str conversion limit."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without it
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(previous)


@pytest.fixture(scope="session")
def ternary() -> WeightVector:
    return parts_to_weights([1, 0, 1])


@pytest.fixture(scope="session")
def lebesgue3() -> WeightVector:
    return parts_to_weights([1, 1, 1])
