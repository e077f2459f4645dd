"""
Devil's-staircase CDFs of weighted Cantor measures
==================================================

A weight vector alpha = (alpha_0, ..., alpha_{N-1}) splits the unit mass
over the N affine branches x -> (x + n)/N.  The resulting CDF is exactly
computable on every depth-k grid j/N**k: each grid-cell increment is a
product of k weights.  This script tabulates two classic examples, writes
their plot data to CSV and, when matplotlib is importable, renders PNGs.
"""
from fractions import Fraction

from cantor_measures import cdf_table, parse_weights

EXAMPLES = {
    "ternary": parse_weights("1/2,0,1/2"),
    "five_branch": parse_weights("1/20,1/5,1/2,1/5,1/20"),
}
DEPTHS = {"ternary": 6, "five_branch": 4}

for name, weights in EXAMPLES.items():
    depth = DEPTHS[name]
    table = cdf_table(weights, depth)
    csv_path = f"cdf_{name}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(table.to_csv())
    print(f"{name}: alpha = ({weights}), depth {depth}, "
          f"{len(table.points)} exact points -> {csv_path}")

    # A few exact interpolant values: the chord between the grid points
    # around x; rationals in, rationals out.
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        j = int(x * table.mesh_size)  # x < 1, so cell j and point j + 1 exist
        (x0, f0), (x1, f1) = table.points[j], table.points[j + 1]
        print(f"  F({x}) = {f0 + (x - x0) * (f1 - f0) / (x1 - x0)}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping PNG rendering")
else:
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    for ax, (name, weights) in zip(axes, EXAMPLES.items()):
        table = cdf_table(weights, DEPTHS[name])
        xs = [float(x) for x, _ in table.points]
        ys = [float(f) for _, f in table.points]
        ax.plot(xs, ys, linewidth=0.8)
        ax.set_title(f"alpha = ({weights})")
        ax.set_xlabel("x")
        ax.set_ylabel("F(x)")
    fig.tight_layout()
    fig.savefig("cdf_staircase.png", dpi=150)
    print("wrote cdf_staircase.png")
