"""Tests of the benchmark's own references against closed forms.

    python3 -m pytest perfbench/test_reference.py -q

These import nothing from ``cantor_measures``.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref
import run
import workloads

TERNARY = ref.parse_weights("1/2,0,1/2")
SKEWED = ref.parse_weights("1/5,3/10,1/10,2/5")


def test_ternary_closed_forms():
    expect = [Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(5, 16), Fraction(87, 320)]
    assert ref.exact_raw(TERNARY, 4) == expect
    want = np.array([float(x) for x in expect])
    assert np.all(np.abs(ref.float_raw(TERNARY, 4) - want) <= ref.float_rel_err(np.arange(5)) * want)


def test_uniform_weights_give_lebesgue_moments():
    for n_base in (2, 3, 5):
        w = tuple(Fraction(1, n_base) for _ in range(n_base))
        assert ref.exact_raw(w, 12) == [Fraction(1, m + 1) for m in range(13)]
        got = ref.float_raw(w, 2000)
        want = 1.0 / np.arange(1, 2002)
        assert np.all(np.abs(got - want) <= ref.float_rel_err(np.arange(2001)) * want)


def test_first_moment_is_mean_digit_over_n_minus_one():
    for w in (TERNARY, SKEWED, ref.parse_weights("3/7,2/7,0,1/7,1/7")):
        mean = sum(a * n for n, a in enumerate(w)) / (len(w) - 1)
        assert ref.exact_raw(w, 1)[1] == mean


def test_float_references_within_their_error_bound():
    for w in (SKEWED, ref.parse_weights("1/4,1/6,1/6,1/6,1/4"), ref.parse_weights("1/3,2/3")):
        m = 160
        exact = np.array([float(x) for x in ref.exact_raw(w, m)])
        assert np.all(np.abs(ref.float_raw(w, m) - exact) <= ref.float_rel_err(np.arange(m + 1)) * exact)
    w = ref.parse_weights("1/4,1/6,1/6,1/6,1/4")
    exact = np.array([float(x) for x in ref.exact_centred(w, 120)])
    got = ref.float_centred(w, 120)
    assert np.all(got[1::2] == 0) and np.all(exact[1::2] == 0)
    assert np.all(np.abs(got - exact) <= ref.float_rel_err(np.arange(121)) * np.abs(exact))


def test_centred_moments_are_binomial_transform_of_raw():
    raw = ref.exact_raw(SKEWED, 10)
    centred = ref.exact_centred(SKEWED, 10)
    for m in range(11):
        transform = sum(math.comb(m, i) * Fraction(-1, 2) ** (m - i) * raw[i] for i in range(m + 1))
        assert centred[m] == transform
        assert abs(centred[m]) <= Fraction(1, 2**m)


def test_cdf_digit_expansion():
    q, h, t = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)
    assert [ref.cdf_at(TERNARY, j, 2) for j in range(10)] == [0, q, q, h, h, h, h, t, t, 1]
    # Self-similarity: F(x / N) = alpha_0 F(x).
    for j in range(4**3 + 1):
        assert ref.cdf_at(SKEWED, j, 4) == SKEWED[0] * ref.cdf_at(SKEWED, j, 3)
    lebesgue = ref.parse_weights("1/4,1/4,1/4,1/4")
    assert all(ref.cdf_at(lebesgue, j, 3) == Fraction(j, 64) for j in range(65))


def test_chebyshev_basis_is_orthogonal():
    for w in (TERNARY, SKEWED):
        d = 8
        moments = ref.exact_raw(w, 2 * d)
        polys, norms = ref.chebyshev_basis(moments, d)

        def inner(p, q):
            return sum(pi * qj * moments[i + j] for i, pi in enumerate(p) for j, qj in enumerate(q))

        for i in range(d + 1):
            assert len(polys[i]) == i + 1 and polys[i][-1] == 1
            assert inner(polys[i], polys[i]) == norms[i] > 0
            for j in range(i):
                assert inner(polys[i], polys[j]) == 0


def test_workloads_repeat_per_seed_and_fast_requests_do_not_depend_on_it():
    for build in workloads.BUILDERS.values():
        assert [r.argv for r in build(3)] == [r.argv for r in build(3)]
        assert [r.argv for r in build(3)] != [r.argv for r in build(4)]
    fast = lambda seed: sorted(r.argv for r in workloads.fast_certified(seed) if "fast" in r.argv)
    assert fast(1) == fast(2)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    trace = {"self_s": {}, "counts": {}, "gc.pause_s": 0.0, "gc.collections": 0}
    rounds = [run.Round(latencies=[1.0], untraced=[1.0], refs=[1.0], scales=[1.0],
                        output_bytes=10, trace=trace)] * 2
    metrics, problems = run.per_layer_metrics(rounds, 0.0)
    assert [(k, u) for k, (_, u) in metrics.items()] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert not problems
