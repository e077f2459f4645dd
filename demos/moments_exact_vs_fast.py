"""
Exact moments versus the certified fast pipeline
================================================

Moments of a weighted Cantor measure obey an exact rational recurrence, and
independently arise as coefficients of a rapidly converging product of
truncated exponential series.  The fast path carries a per-index certified
error bound, the truncation term m*I_1/N**k plus the rounding and underflow
errors, so its accuracy needs no reference values; here we cross-check it
against exact arithmetic anyway, then run it at a large degree.  That term replaces the
paper's Cauchy estimate e*m*sqrt(m-1)/N**k: the depth-k product is the
moment generating function of the first k base-N digits of X, the digits
after them add N**-k times an independent copy of X, and so the gap is at
most m*I_1/N**k, at least e times less.  The bound is within eps at every
index up to m = 170; from 171 on, m! leaves the double range and the bound
is inf, so only indices inside that range are shown.
"""
import time

from cantor_measures import exact_moments, left_endpoint_estimate, parse_weights
from cantor_measures.fast import fast_moments

ternary = parse_weights("1/2,0,1/2")

print("exact ternary moments (rational):")
exact = exact_moments(ternary, 8)
for m, value in enumerate(exact.values):
    print(f"  I_{m} = {value}")

print("\nleft-endpoint lower sums converge from below (m = 2):")
for depth in (1, 2, 4, 8):
    lower = left_endpoint_estimate(ternary, depth, 2)
    print(f"  depth {depth}: {float(lower):.10f}  (exact 0.375)")

eps = 1e-10
result = fast_moments(ternary, 8, eps)
print(f"\nfast pipeline at eps = {eps} (depth {result.depth_used}):")
print(f"  {'m':>3} {'fast value':>20} {'|error|':>12} {'bound':>12}")
for m in range(9):
    err = abs(result.moments[m] - float(exact.values[m]))
    print(f"  {m:>3} {result.moments[m]:>20.15f} {err:>12.2e} "
          f"{result.certified_bound[m]:>12.2e}")

start = time.perf_counter()
big = fast_moments(ternary, 4096, 1e-10)
elapsed = time.perf_counter() - start
print(f"\nm = 4096 at eps = 1e-10: depth {big.depth_used}, "
      f"{elapsed:.3f} s wall time")
for m in (100, 160):
    print(f"  I_{m} ~ {big.moments[m]:.12f}  (bound {big.certified_bound[m]:.1e})")
