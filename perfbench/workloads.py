"""Request lists of the three workloads.

A request is the argv of one ``cantor-measures`` invocation plus the facts
the checks need.  Each workload is a fixed list of slots in a fixed order.
A slot fixes the command, the base N, the numerators of the weights over a
small common denominator, the size (m, degree or depth) and the output
format; the seed only rearranges the numerators, which changes the measure
but not the sizes of the big integers it takes to compute with it.

The slots are drawn once from a constant seed, with sizes spread over
continuous ranges (one draw from each of ``c`` equal slices for a kind with
``c`` requests).  Keeping them out of ``--seed`` keeps the cost distribution
of a round, and so its total and its latency quantiles, the same for every
seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("exact-spectral", "fast-certified", "cdf-staircase")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    weights: tuple[Fraction, ...]
    size: int = 0  # m, degree or depth
    extra: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def weights_text(weights: tuple[Fraction, ...]) -> str:
    return ",".join(str(a) for a in weights)


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total`` (uniform over compositions)."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


@dataclass(frozen=True)
class Shape:
    """The fixed part of a slot's weight vector: its numerators over ``denom``.

    The seed only rearranges them: the nonzero numerators among the nonzero
    positions or, for a palindromic vector, the mirrored pairs among the pair
    positions.  The big integers of every computation then have the same
    sizes for every seed, so the slot's cost barely moves with the seed.
    """

    denom: int
    parts: tuple[int, ...]
    palindromic: bool = False

    def draw(self, rng: random.Random) -> tuple[Fraction, ...]:
        parts = list(self.parts)
        half = len(parts) // 2
        if self.palindromic:
            pairs = parts[:half]
            rng.shuffle(pairs)
            parts = pairs + parts[half : len(parts) - half] + pairs[::-1]
        else:
            live = [i for i, p in enumerate(parts) if p]
            values = [parts[i] for i in live]
            rng.shuffle(values)
            for i, v in zip(live, values):
                parts[i] = v
        return tuple(Fraction(p, self.denom) for p in parts)


def _shape(shapes: random.Random, n: int, palindromic=False, zero=None, denoms=range(5, 13)) -> Shape:
    """A random valid slot shape; denominators stay small (at most 12).

    A third of the odd symmetric shapes have a zero middle weight and a
    quarter of the others an interior zero: gaps in the support, as in the
    middle-thirds Cantor measure.  Non-palindromic shapes never have all
    their nonzero numerators equal, so some arrangement is asymmetric.
    """
    if zero is None and n > 2 and shapes.random() < (1 / 3 if palindromic else 1 / 4):
        zero = n // 2 if palindromic else shapes.randrange(1, n - 1)
        if palindromic and n % 2 == 0:
            zero = None
    half, odd = divmod(n, 2)
    live = n - (zero is not None)
    while True:
        denom = shapes.choice(denoms)
        if palindromic:
            if zero is None and odd and denom >= 2 * half + 1:
                middle = shapes.choice(range(denom - 2 * half, 0, -2))
            elif (zero is not None or not odd) and denom % 2 == 0 and denom >= 2 * half:
                middle = 0
            else:
                continue
            pairs = _composition(shapes, (denom - middle) // 2, half)
            return Shape(denom, tuple(pairs + ([middle] if odd else []) + pairs[::-1]), True)
        if denom > live and (n > 2 or denom % 2):  # odd: (a, A-a) is never symmetric
            parts = _composition(shapes, denom, live)
            if len(set(parts)) == 1:
                continue
            if zero is not None:
                parts.insert(zero, 0)
            return Shape(denom, tuple(parts))


def _strata(rng: random.Random, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of (0, 1), shuffled."""
    draws = [(i + rng.random()) / count for i in range(count)]
    rng.shuffle(draws)
    return draws


def _bases(rng: random.Random, count: int) -> list[int]:
    out = [(2, 3, 4, 5)[i % 4] for i in range(count)]
    rng.shuffle(out)
    return out


def _draw(rng: random.Random, shape: Shape, asymmetric=False) -> tuple[Fraction, ...]:
    for _ in range(50):
        w = shape.draw(rng)
        if not asymmetric or w != w[::-1]:
            return w
    raise ValueError(f"no asymmetric vector for {shape}")


#: Sizes of the two bands of ``exact-spectral``.
M50, M90 = 96, 133


def exact_spectral(seed: int) -> list[Request]:
    shapes = random.Random("exact-spectral:slots")
    rng = random.Random(f"exact-spectral:{seed}")
    reqs: list[Request] = []

    def sizes(count: int, lo: int, hi: int) -> list[int]:
        return [round(lo + u * (hi - lo)) for u in _strata(shapes, count)]

    def fmt() -> str:
        return shapes.choice(("csv", "json"))

    for m, n in zip(sizes(10, 50, 120), _bases(shapes, 10)):
        w = _draw(rng, _shape(shapes, n))
        reqs.append(Request(("moments", "--weights", weights_text(w), "--m", str(m),
                             "--mode", "exact", "--format", fmt()), w, m))
    # Two bands of seven requests with one weight shape, size and format each, at
    # the median and at the 90th percentile, so that neither quantile falls
    # in a gap between requests of different cost.
    for count, m, n in ((7, M50, 3), (7, M90, 4)):
        shape, band_fmt = _shape(shapes, n), fmt()
        for _ in range(count):
            w = _draw(rng, shape)
            reqs.append(Request(("moments", "--weights", weights_text(w), "--m", str(m),
                                 "--mode", "exact", "--format", band_fmt), w, m))
    for i, (m, n) in enumerate(zip(sizes(7, 50, 130), _bases(shapes, 7))):
        # Every fourth decay request has last weight 0 (exponential regime).
        zero = n - 1 if i % 4 == 0 and n > 2 else None
        w = _draw(rng, _shape(shapes, n, zero=zero))
        reqs.append(Request(("decay", "--weights", weights_text(w), "--m", str(m),
                             "--format", fmt()), w, m))
    for m, n in zip(sizes(7, 40, 100), _bases(shapes, 7)):
        w = _draw(rng, _shape(shapes, n, palindromic=True))
        reqs.append(Request(("shifted-moments", "--weights", weights_text(w), "--m", str(m),
                             "--mode", "exact", "--format", fmt()), w, m))
    for palindromic, (lo, hi) in ((True, (8, 18)), (False, (8, 13))):
        for d, n in zip(sizes(7, lo, hi), _bases(shapes, 7)):
            w = _draw(rng, _shape(shapes, n, palindromic=palindromic), asymmetric=not palindromic)
            f = fmt()
            argv = ["legendre", "--weights", weights_text(w), "--degree", str(d), "--format", f]
            grid = 0
            if f == "csv":
                grid = shapes.randint(101, 301)
                argv += ["--grid-points", str(grid)]
            reqs.append(Request(tuple(argv), w, d, {"grid_points": grid}))
    shapes.shuffle(reqs)
    return reqs


def _fast_requests() -> list[Request]:
    """Certified-fast requests.  All of their inputs are fixed, not only the
    slots: they fail today (faults F1 and F2 in the README), and the share of
    failed requests must be the same in every run."""
    rng = random.Random("fast-certified:slots")
    reqs: list[Request] = []

    def log_uniform(count: int, lo: float, hi: float) -> list[float]:
        return [lo * (hi / lo) ** u for u in _strata(rng, count)]

    def add(command: str, w, m: int, eps: float, fmt: str) -> None:
        reqs.append(Request((command, "--weights", weights_text(w), "--m", str(m),
                             "--mode", "fast", "--eps", f"{eps:.3g}", "--format", fmt), w, m))

    for i, (m, eps, n) in enumerate(zip(log_uniform(16, 64, 4096), log_uniform(16, 1e-12, 1e-4),
                                        _bases(rng, 16))):
        add("moments", _shape(rng, n).draw(rng), round(m), eps, ("csv", "json")[i % 2])
    for i, (m, eps, n) in enumerate(zip(log_uniform(8, 64, 4096), log_uniform(8, 1e-12, 1e-4),
                                        _bases(rng, 8))):
        add("shifted-moments", _shape(rng, n, palindromic=True).draw(rng), round(m), eps,
            ("csv", "json")[i % 2])
    # A band of eight requests of similar cost at the 90th percentile, so that
    # it does not fall in the gap between m ~ 2000 and m ~ 3000.
    for m, eps in zip(log_uniform(8, 1900, 2300), log_uniform(8, 1e-10, 1e-8)):
        add("moments", _shape(rng, 3).draw(rng), round(m), eps, "csv")
    # The worked examples of faults F1 and F2.
    ternary = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
    add("moments", ternary, 200, 1e-10, "csv")
    add("moments", (Fraction(1, 5), Fraction(3, 10), Fraction(1, 10), Fraction(2, 5)), 20, 1e-10, "csv")
    add("shifted-moments", ternary, 40, 1e-10, "json")
    return reqs


def fast_certified(seed: int) -> list[Request]:
    shapes = random.Random("fast-certified:mgf-slots")
    rng = random.Random(f"fast-certified:{seed}")
    reqs = _fast_requests()
    for u, n in zip(_strata(shapes, 8), _bases(shapes, 8)):
        w = _draw(rng, _shape(shapes, n))
        s = round(-40 + 80 * u, 6)
        depth = shapes.randint(10, 60)
        reqs.append(Request(("mgf", "--weights", weights_text(w), "--s", repr(s), "--depth",
                             str(depth), "--format", shapes.choice(("csv", "json"))),
                            w, depth, {"s": s}))
    shapes.shuffle(reqs)
    return reqs


#: Denominators of the CDF workload.  With a prime denominator no weight
#: reduces (with 12, 1/12 and 6/12 = 1/2 would), so the tables of one slot
#: build the same fractions whatever the arrangement of the numerators.
PRIMES = (5, 7, 11)


def _depths(n_base: int, lo_cells: int, hi_cells: int) -> list[int]:
    return [k for k in range(1, 40) if lo_cells <= n_base**k <= hi_cells]


#: (N, depth) of the two bands of ``cdf-staircase``.
CDF_BAND50, CDF_BAND90 = (3, 7), (3, 8)


def cdf_staircase(seed: int) -> list[Request]:
    shapes = random.Random("cdf-staircase:slots")
    rng = random.Random(f"cdf-staircase:{seed}")
    # Every (N, k) with 2**9 <= N**k <= 2**12 and 2**13 once, and the
    # largest table, 5**7 = 78125 cells (about 2**16.3).  A table of 2**17
    # cells alone took 40 % of a round, which left a run too few rounds for a
    # steady median.
    tables = []
    for n in (2, 3, 4, 5):
        tables += [(n, k) for k in _depths(n, 2**9, 2**12)]
    tables += [(2, 13), (5, 7)]
    pairs = []
    for n in (2, 3, 4, 5):
        pairs += [(n, k) for k in _depths(n, 2**8, 2**11)]
    pairs += [(2, 9), (2, 10), (3, 6), (3, 7), (4, 5), (5, 4)]
    reqs: list[Request] = []
    for n, k in tables:
        w = _draw(rng, _shape(shapes, n, denoms=PRIMES))
        reqs.append(Request(("cdf", "--weights", weights_text(w), "--depth", str(k),
                             "--format", shapes.choice(("csv", "json"))), w, k))
    # Two bands of seven tables with one weight shape, size and format each,
    # at the median and at the 90th percentile, so that neither quantile
    # falls in a gap between requests of different cost.
    for (n, k) in (CDF_BAND50, CDF_BAND90):
        shape = _shape(shapes, n, denoms=PRIMES)
        fmt = shapes.choice(("csv", "json"))
        for _ in range(7):
            w = _draw(rng, shape)
            reqs.append(Request(("cdf", "--weights", weights_text(w), "--depth", str(k),
                                 "--format", fmt), w, k))
    for n, k in pairs:
        wa = _draw(rng, _shape(shapes, n, denoms=PRIMES))
        wb = _perturb(rng, wa)
        reqs.append(Request(("lipschitz", "--weights", weights_text(wa), "--weights-b",
                             weights_text(wb), "--depth", str(k),
                             "--format", shapes.choice(("csv", "json"))),
                            wa, k, {"weights_b": wb}))
    shapes.shuffle(reqs)
    return reqs


def _perturb(rng: random.Random, w: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Move mass ``1 / (2A)`` (A the denominator) from one weight to another."""
    denom = math.lcm(*(a.denominator for a in w))
    src = rng.choice([i for i, a in enumerate(w) if a > 0])
    dst = rng.choice([i for i in range(len(w)) if i != src])
    out = list(w)
    out[src] -= Fraction(1, 2 * denom)
    out[dst] += Fraction(1, 2 * denom)
    return tuple(out)


BUILDERS = {
    "exact-spectral": exact_spectral,
    "fast-certified": fast_certified,
    "cdf-staircase": cdf_staircase,
}

#: The first request of a fresh process in the set-up measurement: small and
#: independent of the seed, so set-up time is start-up, import and one
#: representative call.
SETUP_REQUEST = {
    "exact-spectral": ("moments", "--weights", "1/2,0,1/2", "--m", "32", "--mode", "exact"),
    "fast-certified": ("moments", "--weights", "1/2,0,1/2", "--m", "64", "--mode", "fast", "--eps", "1e-8"),
    "cdf-staircase": ("cdf", "--weights", "1/2,0,1/2", "--depth", "6"),
}
