"""
Orthogonal polynomials in L2 of a Cantor measure
================================================

Polynomial inner products against a measure reduce to its moments.  The
Chebyshev algorithm turns exact rational moments into the coefficients of
the three-term recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}, so the
resulting monic family is orthogonal with zero tolerance.  For symmetric
measures every a_k is 1/2 and the family alternates parity about x = 1/2.
We build the first six polynomials for the ternary measure, verify
orthogonality and parity, run the same routine on an asymmetric measure,
and export normalized plot data.
"""
import math
from fractions import Fraction

from cantor_measures import (
    eval_poly,
    exact_moments,
    grid_csv,
    inner_product,
    monic_basis_general,
    monic_basis_symmetric,
    parse_weights,
)

ternary = parse_weights("1/2,0,1/2")
degree = 5
moments = exact_moments(ternary, 2 * degree)
basis = monic_basis_symmetric(ternary, degree)

print("monic orthogonal polynomials (ascending coefficients):")
for n, (poly, norm_sq) in enumerate(zip(basis.polys, basis.norms_sq)):
    printed = ", ".join(str(c) for c in poly)
    print(f"  p_{n}(x): ({printed})   |p_{n}|^2 = {norm_sq}")

worst = max(
    abs(inner_product(basis.polys[i], basis.polys[j], moments))
    for i in range(degree + 1)
    for j in range(i)
)
print(f"\nlargest off-diagonal inner product: {worst} (exact zero)")

for n, poly in enumerate(basis.polys):
    for x in (Fraction(1, 7), Fraction(2, 5)):
        assert eval_poly(poly, 1 - x) == (-1) ** n * eval_poly(poly, x)
print("p_n(1 - x) = (-1)**n p_n(x): parity alternates about x = 1/2")

skewed = parse_weights("1/5,3/10,1/10,2/5")
p2 = monic_basis_general(skewed, 2).polys[2]
print(f"same routine, weights {skewed}: p_2(x) = ({', '.join(map(str, p2))})")

leading = [1 / math.sqrt(float(norm_sq)) for norm_sq in basis.norms_sq]
print("\nnormalized leading coefficients 1/|p_n|:", [round(c, 6) for c in leading])

# The grid runs the same three-term recurrence in floats over all points.
grid = grid_csv(basis, n_points=301)
path = "legendre_ternary_grid.csv"
with open(path, "w", encoding="utf-8") as fh:
    fh.write(grid)
print(f"wrote normalized plot data -> {path}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping PNG rendering")
else:
    xs, *columns = zip(*([float(v) for v in line.split(",")] for line in grid.splitlines()[1:]))
    fig, ax = plt.subplots(figsize=(8, 5))
    for n, ys in enumerate(columns):
        ax.plot(xs, ys, label=f"p{n}", linewidth=0.9)
    ax.legend()
    ax.set_xlabel("x")
    fig.tight_layout()
    fig.savefig("legendre_ternary.png", dpi=150)
    print("wrote legendre_ternary.png")
