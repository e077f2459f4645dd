"""Checks of every CLI output against :mod:`reference` or required properties.

A check returns a :class:`Verdict`.  ``faults`` names the known program
faults the output shows (F1, F2: see the README); ``problems`` lists any
other way the output is wrong.  A request fails when either is non-empty; a
run stays ``correct`` only while every failure is a known fault.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import reference as ref
from workloads import Request

U = ref.UNIT_ROUNDOFF
#: Largest index compared exactly against :func:`reference.exact_raw`.
EXACT_WINDOW = 64
#: Prime for the modular form of the exact recurrence identities.
PRIME = (1 << 61) - 1
#: Exact-recurrence identities checked per moment request.
IDENTITY_SAMPLES = 4
#: Orthogonality pairs and CDF grid points checked per request.
PAIR_SAMPLES = 6
GRID_SAMPLES = 16
#: Smallest positive normal double: EGF coefficients I_n / n! below it lose
#: bits before they reach the package's reconstruction.
TINY = sys.float_info.min
#: Moments used for the MGF series; for |s| <= 40 the tail after 250 terms is
#: below 40**250 / 250! < 1e-140 of the sum.
MGF_TERMS = 250


@dataclass
class Verdict:
    faults: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.faults or self.problems)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


class References:
    """Reference values per weight vector, computed once per run."""

    def __init__(self) -> None:
        self._float: dict = {}
        self._exact: dict = {}

    def float_raw(self, w, m: int) -> np.ndarray:
        return self._get(self._float, ("raw", w), m, ref.float_raw)

    def float_centred(self, w, m: int) -> np.ndarray:
        return self._get(self._float, ("centred", w), m, ref.float_centred)

    def exact_raw(self, w, m: int) -> list[Fraction]:
        return self._get(self._exact, ("raw", w), m, ref.exact_raw)

    def exact_centred(self, w, m: int) -> list[Fraction]:
        return self._get(self._exact, ("centred", w), m, ref.exact_centred)

    @staticmethod
    def _get(cache: dict, key, m: int, build):
        have = cache.get(key)
        if have is None or len(have) <= m:
            have = build(key[1], m)
            cache[key] = have
        return have[: m + 1]

    def prepare(self, requests: list[Request]) -> None:
        """Build every reference the requests need, before anything is timed."""
        need: dict = {}

        def want(kind, w, m):
            need[(kind, w)] = max(need.get((kind, w), -1), m)

        for r in requests:
            w = r.weights
            if r.command in ("moments", "decay"):
                want("float_raw", w, r.size)
                if "fast" in r.argv:
                    want("exact_raw", w, min(r.size, EXACT_WINDOW))
            elif r.command == "shifted-moments":
                want("float_centred", w, r.size)
                if "fast" in r.argv:
                    want("exact_centred", w, min(r.size, EXACT_WINDOW))
            elif r.command == "legendre":
                want("exact_raw", w, 2 * r.size)
            elif r.command == "mgf":
                want("float_raw", w if r.extra["s"] >= 0 else w[::-1], MGF_TERMS)
        for (kind, w), m in need.items():
            getattr(self, kind)(w, m)


def _split_rational(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _mod(p: int, q: int) -> int | None:
    """``p / q`` in the field of integers modulo PRIME (None if q vanishes there)."""
    qm = q % PRIME
    return None if qm == 0 else p % PRIME * pow(qm, -1, PRIME) % PRIME


def _identity_holds(weights, offsets, values_mod: list[int], m: int) -> bool:
    """``(N**m - 1) V_m == sum_n a_n sum_{i<m} C(m,i) c_n**(m-i) V_i`` mod PRIME."""
    n_base = len(weights)
    rhs = 0
    for a, c in zip(weights, offsets):
        if a == 0:
            continue
        am = _mod(a.numerator, a.denominator)
        cm = _mod(c.numerator, c.denominator)
        acc = 0
        for i in range(m):
            acc += math.comb(m, i) % PRIME * pow(cm, m - i, PRIME) * values_mod[i]
        rhs += am * (acc % PRIME)
    return (pow(n_base, m, PRIME) - 1) * values_mod[m] % PRIME == rhs % PRIME


class Checker:
    def __init__(self, refs: References, seed: int) -> None:
        self.refs = refs
        self.rng = random.Random(f"checks:{seed}")

    def check(self, req: Request, rc: int, out: str, err: str) -> Verdict:
        v = Verdict()
        if rc != 0:
            v.problems.append(f"exit code {rc}: {err.strip()[:200]}")
            return v
        try:
            getattr(self, "_" + req.command.replace("-", "_"))(req, out, v)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            v.problems.append(f"unparseable output: {exc!r}")
        return v

    # -- exact moments -------------------------------------------------
    def _exact_values(self, req: Request, out: str) -> list[tuple[int, int]]:
        if req.fmt == "json":
            return [_split_rational(t) for t in json.loads(out)["moments"]]
        _, rows = _csv_rows(out)
        return [(int(r[1]), int(r[2])) for r in rows]

    def _moments(self, req: Request, out: str, v: Verdict) -> None:
        if "fast" in req.argv:
            return self._fast(req, out, v, centred=False)
        vals = self._exact_values(req, out)
        m, w = req.size, req.weights
        v.require(len(vals) == m + 1, f"{len(vals)} moments for m={m}")
        v.require(vals[0] == (1, 1), "I_0 != 1")
        expect = self.refs.float_raw(w, m)
        tol = ref.float_rel_err(np.arange(m + 1)) + 4 * U
        got = np.array([p / q for p, q in vals])
        bad = np.nonzero(np.abs(got - expect) > tol * expect)[0]
        v.require(bad.size == 0, f"I_m off the float reference at m={bad[:5].tolist()}")
        self._identities(w, [Fraction(n) for n in range(len(w))], vals, v)

    def _identities(self, w, offsets, vals, v: Verdict) -> None:
        mods = [_mod(p, q) for p, q in vals]
        top = len(vals) - 1
        picks = {top} | {self.rng.randint(1, top) for _ in range(IDENTITY_SAMPLES - 1)}
        for m in sorted(picks):
            if None in mods[: m + 1]:
                continue
            v.require(_identity_holds(w, offsets, mods, m), f"recurrence identity fails at m={m}")

    def _shifted_moments(self, req: Request, out: str, v: Verdict) -> None:
        if "fast" in req.argv:
            return self._fast(req, out, v, centred=True)
        vals = self._exact_values(req, out)
        m, w = req.size, req.weights
        v.require(len(vals) == m + 1, f"{len(vals)} moments for m={m}")
        v.require(vals[0] == (1, 1), "J_0 != 1")
        v.require(all(p == 0 for p, _ in vals[1::2]), "odd shifted moment not exactly 0")
        v.require(all(abs(p) << i <= q for i, (p, q) in enumerate(vals)), "|J_m| > 2**-m")
        expect = self.refs.float_centred(w, m)
        tol = ref.float_rel_err(np.arange(m + 1)) + 4 * U
        got = np.array([p / q for p, q in vals])
        bad = np.nonzero(np.abs(got - expect) > tol * np.abs(expect))[0]
        v.require(bad.size == 0, f"J_m off the float reference at m={bad[:5].tolist()}")
        n_base = len(w)
        self._identities(w, [Fraction(2 * n - n_base + 1, 2) for n in range(n_base)], vals, v)

    # -- certified fast moments ----------------------------------------
    def _fast(self, req: Request, out: str, v: Verdict, centred: bool) -> None:
        if req.fmt == "json":
            data = json.loads(out)
            values, bounds = data["moments"], data["bounds"]
        else:
            _, rows = _csv_rows(out)
            values = [float(r[1]) for r in rows]
            bounds = [float(r[2]) for r in rows]
        m, w = req.size, req.weights
        v.require(len(values) == m + 1 == len(bounds), f"{len(values)} moments for m={m}")
        values = np.array(values, dtype=np.float64)
        bounds = np.array(bounds, dtype=np.float64)
        v.require(bool(np.all(np.isfinite(values)) and np.all(bounds >= 0)), "non-finite value or negative bound")
        exact = (self.refs.exact_centred if centred else self.refs.exact_raw)(w, min(m, EXACT_WINDOW))
        floats = (self.refs.float_centred if centred else self.refs.float_raw)(w, m)
        window = len(exact)
        # Exact decision on the low indices.
        bad = [i for i in range(window) if abs(Fraction(values[i]) - exact[i]) > Fraction(bounds[i])]
        true = np.array([float(x) for x in exact] + floats[window:].tolist())
        # Above the window the float reference decides only violations larger
        # than its own error.
        err = ref.float_rel_err(np.arange(m + 1)) * np.abs(true)
        over = np.abs(values - true) > bounds + err
        over[:window] = False
        bad += np.nonzero(over)[0].tolist()
        for i in bad:
            true_i = float(true[i])
            underflow = true_i != 0 and math.log(abs(true_i)) - math.lgamma(i + 1) < math.log(TINY)
            if underflow:
                v.faults.add("F1")  # the EGF coefficient I_i / i! left the normal range
            elif abs(values[i] - true_i) <= 2.0**-40 * abs(true_i):
                v.faults.add("F2")  # rounding error outside the bound
            else:
                v.problems.append(f"certified value off by more than rounding at m={i}")
                break

    # -- orthogonal bases ------------------------------------------------
    def _legendre(self, req: Request, out: str, v: Verdict) -> None:
        d, w = req.size, req.weights
        moments = self.refs.exact_raw(w, 2 * d)
        if req.fmt == "json":
            data = json.loads(out)
            polys = [[Fraction(c) for c in p] for p in data["polys"]]
            norms = [Fraction(x) for x in data["norms_sq"]]
            v.require(len(polys) == d + 1 == len(norms), f"{len(polys)} polynomials for degree {d}")
            v.require(all(len(p) == n + 1 and p[-1] == 1 for n, p in enumerate(polys)), "not monic")
            v.require(all(x > 0 for x in norms), "nonpositive norm")

            def inner(p, q):
                return sum(pi * qj * moments[i + j] for i, pi in enumerate(p) if pi
                           for j, qj in enumerate(q) if qj)

            for _ in range(PAIR_SAMPLES):
                i, j = sorted(self.rng.sample(range(d + 1), 2))
                v.require(inner(polys[i], polys[j]) == 0, f"<p{i},p{j}> != 0")
            n = self.rng.randint(0, d)
            v.require(inner(polys[n], polys[n]) == norms[n], f"|p{n}|^2 != norms_sq[{n}]")
            return
        header, rows = _csv_rows(out)
        grid = req.extra["grid_points"]
        v.require(header == ["x"] + [f"p{n}" for n in range(d + 1)], "bad grid header")
        v.require(len(rows) == grid, f"{len(rows)} grid rows, expected {grid}")
        v.require(all(float(r[0]) == i / (grid - 1) for i, r in enumerate(rows)), "grid x off")
        polys, norms = ref.chebyshev_basis(moments, d)
        for i in self.rng.sample(range(grid), 5):
            x = Fraction(float(rows[i][0]))
            for n, (p, norm) in enumerate(zip(polys, norms)):
                scale = 1.0 / math.sqrt(float(norm))
                want = float(sum(c * x**k for k, c in enumerate(p))) * scale
                size = sum(abs(float(c)) * float(x) ** k for k, c in enumerate(p)) * scale
                got = float(rows[i][n + 1])
                v.require(abs(got - want) <= (4 * n + 16) * U * size, f"p{n}({float(x)}) off")

    # -- decay --------------------------------------------------------------
    def _decay(self, req: Request, out: str, v: Verdict) -> None:
        m, w = req.size, req.weights
        if req.fmt == "json":
            data = json.loads(out)
            regime, gamma = data["regime"], data.get("gamma", math.inf)
            witness, checked, ok = data["witness_constant"], data["max_m_checked"], not data["violations"]
        else:
            _, rows = _csv_rows(out)
            regime, gamma_s, witness_s, checked_s, ok_s = rows[0]
            gamma = math.inf if gamma_s == "inf" else float(gamma_s)
            witness, checked, ok = float(witness_s), int(checked_s), ok_s == "True"
        last = w[-1]
        n_base = len(w)
        moments = self.refs.float_raw(w, m)
        idx = np.arange(1, m + 1)
        tol = ref.float_rel_err(m) + 16 * U
        v.require(checked == m and ok, "decay report flags violations or wrong range")
        if last == 0:
            v.require(regime == "exponential" and gamma == math.inf, f"regime {regime} for last weight 0")
            # m = 0 contributes I_0 / 1 = 1.
            want = max(1.0, float(np.max(moments[1:] / ((n_base - 1) / n_base) ** idx)))
        else:
            expect_gamma = math.log(1 / float(last)) / math.log(n_base)
            v.require(regime == "polynomial", f"regime {regime} for last weight {last}")
            v.require(abs(gamma - expect_gamma) <= 8 * U * expect_gamma, "gamma off")
            want = float(np.min(moments[1:] * idx**expect_gamma))
        v.require(abs(witness - want) <= 4 * tol * want, f"witness constant {witness} vs {want}")

    # -- CDF tables and Lipschitz ------------------------------------------
    def _cdf(self, req: Request, out: str, v: Verdict) -> None:
        k, w = req.size, req.weights
        n_base = len(w)
        size = n_base**k
        if req.fmt == "json":
            data = json.loads(out)
            v.require(data["depth"] == k, "depth echo")
            points = data["points"]
        else:
            _, points = _csv_rows(out)
        v.require(len(points) == size + 1, f"{len(points)} points for {size} cells")
        denom = math.lcm(*(a.denominator for a in w)) ** k
        scaled = []
        for j, (x, f) in enumerate(points):
            xp, xq = _split_rational(x)
            fp, fq = _split_rational(f)
            if xp * size != j * xq or denom % fq:
                v.problems.append(f"grid point {j} is {x}, {f}")
                return
            scaled.append(fp * (denom // fq))
        v.require(scaled[0] == 0 and scaled[-1] == denom, "CDF does not run from 0 to 1")
        v.require(all(a <= b for a, b in zip(scaled, scaled[1:])), "CDF not monotone")
        for j in self.rng.sample(range(size + 1), min(GRID_SAMPLES, size + 1)):
            v.require(Fraction(scaled[j], denom) == ref.cdf_at(w, j, k), f"F({j}/{size}) off")

    def _lipschitz(self, req: Request, out: str, v: Verdict) -> None:
        k, wa, wb = req.size, req.weights, req.extra["weights_b"]
        if req.fmt == "json":
            data = json.loads(out)
            dist, bound, ok = Fraction(data["distance"]), Fraction(data["bound"]), data["ok"]
        else:
            _, rows = _csv_rows(out)
            dist, bound, ok = Fraction(rows[0][0]), Fraction(rows[0][1]), rows[0][2] == "True"
        n_base = len(wa)
        v.require(bound == k * n_base**k * max(abs(a - b) for a, b in zip(wa, wb)), "bound off")
        v.require(ok and 0 <= dist <= bound, f"distance {dist} above bound {bound}")
        size = n_base**k
        for j in self.rng.sample(range(size + 1), min(GRID_SAMPLES, size + 1)):
            gap = abs(ref.cdf_at(wa, j, k) - ref.cdf_at(wb, j, k))
            v.require(gap <= dist, f"distance {dist} below the gap at {j}/{size}")

    # -- MGF ------------------------------------------------------------------
    def _mgf(self, req: Request, out: str, v: Verdict) -> None:
        s, depth, w = req.extra["s"], req.size, req.weights
        if req.fmt == "json":
            data = json.loads(out)
            s_out, depth_out, value = data["s"], data["depth"], data["value"]
        else:
            _, rows = _csv_rows(out)
            s_out, depth_out, value = float(rows[0][0]), int(rows[0][1]), float(rows[0][2])
        v.require(s_out == s and depth_out == depth, "s/depth echo")
        # M(s) = sum I_n s**n / n!; for s < 0 use the mirrored measure,
        # M(s) = e**s M'(-s), so every term is positive.
        moments = self.refs.float_raw(w if s >= 0 else w[::-1], MGF_TERMS)
        t, total = 1.0, 0.0
        for n in range(MGF_TERMS + 1):
            total += moments[n] * t
            t *= abs(s) / (n + 1)
        full = total if s >= 0 else math.exp(s) * total
        # The depth-k partial product P misses the factor M(s / N**k), which
        # lies between 1 and e**(s / N**k).
        tail = math.exp(s / len(w) ** depth)
        lo, hi = (full / tail, full) if s >= 0 else (full, full / tail)
        tol = 1e-9 + depth * (len(w) + 4) * U
        v.require(lo * (1 - tol) <= value <= hi * (1 + tol), f"mgf {value} outside [{lo}, {hi}]")
