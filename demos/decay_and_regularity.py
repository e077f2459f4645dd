"""
Moment decay regimes and CDF regularity
=======================================

Moments of a weighted Cantor measure decay exponentially exactly when the
last weight vanishes (the support then stays inside [0, 1 - 1/N]); otherwise
they decay like m**-gamma with gamma = log_N(1/alpha_{N-1}).  The CDF is
Holder continuous with exponent log(1/max(alpha))/log(N), and depth-k CDF
interpolants are Lipschitz in the weights with constant k*N**k.
"""
from cantor_measures import (
    check_decay,
    check_lipschitz,
    holder_exponent,
    parse_weights,
    shifted_moments,
)

CASES = [
    ("ternary", parse_weights("1/2,0,1/2")),
    ("left-leaning", parse_weights("1/2,1/2,0")),
    ("uniform", parse_weights("1/3,1/3,1/3")),
    ("five-branch", parse_weights("1/20,1/5,1/2,1/5,1/20")),
]

for name, w in CASES:
    report = check_decay(w, 64)
    holder = holder_exponent(w)
    gamma = "inf" if report.regime == "exponential" else f"{report.gamma:.5f}"
    print(f"{name:s}: alpha = ({w})")
    print(f"  Holder exponent {holder:.5f}; {report.regime} moment decay, "
          f"gamma = {gamma}, witness {report.witness_constant:.4f}")

print("\nshifted moments decay like 2**-m for every weight vector:")
for name, w in CASES:
    if not w.is_palindromic:
        continue
    shifted = shifted_moments(w, 32)
    scaled = max(abs(v) * 2**m for m, v in enumerate(shifted.values))
    print(f"  {name}: max |J_m| * 2**m = {float(scaled):.4f} (<= 1)")

print("\nCDF interpolants are Lipschitz in the weights (depth 2):")
a = parse_weights("1/2,0,1/2")
b = parse_weights("5/12,1/6,5/12")
result = check_lipschitz(a, b, 2)
print(f"  distance {result.distance} <= bound {result.bound}: {result.ok}")
