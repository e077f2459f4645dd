"""Exact rational moments of weighted Cantor measures.

The m-th moment ``I_m`` is the integral of ``x**m`` against the measure.
Splitting the integral over the N branches gives a closed recurrence

    I_m = (N**m - 1)**-1 * sum_n alpha_n * sum_{i<m} C(m,i) n**(m-i) I_i

with ``I_0 = 1``, evaluated here in exact integer arithmetic.  The branch
sum collapses into integer power sums of the offsets, computed once in
O(N * m) products; each step is then a Horner sum over the step factors
``A * (N**j - 1)`` (A the lcm of the weight denominators), O(m**2) big
products in all, on numerators that are never rescaled.  The moments
returned as ``Fraction`` are reduced once, by one gcd per index; the
orthogonal bases read the unreduced integers, and the decay check a
fixed-point enclosure from the same recurrence (:func:`_moment_enclosure`),
on integers of O(m) bits.

Shifted moments ``J_m`` (measure translated to ``[-1/2, 1/2]``) satisfy
the same recurrence with the branch offsets ``n`` replaced by
``n - (N-1)/2``; both are solved by one integer kernel.  ``|J_m| <= 2**-m``
for every weight vector; the odd ``J_m`` of palindromic weights vanish, and
the kernel steps over even indices only.  Large reduced denominators print
as the kernel's denominator product over a small cofactor, in ``decimal``.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._frozen import Frozen
from .errors import OutOfRange
from .weights import WeightVector, _integer_weights
from .rational import _POWERS, format_int, format_rational


class MomentSequence(Frozen):
    """Exact moments ``I_0..I_m`` (raw) or ``J_0..J_m`` (shifted)."""

    __slots__ = ("weights", "kind", "values")

    def __init__(self, weights: WeightVector, kind: str, values: tuple[Fraction, ...]) -> None:
        if kind not in ("raw", "shifted"):
            raise ValueError(f"kind must be 'raw' or 'shifted', got {kind!r}")
        if not values:
            raise ValueError("a moment sequence holds at least the 0-th moment")
        if values[0] != 1:
            raise ValueError(f"the 0-th moment must be 1, got {values[0]}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)

    @property
    def m_max(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, m: int) -> Fraction:
        return self.values[m]

    def to_csv(self) -> str:
        lines = ["m,numerator,denominator"]
        lines += [f"{m},{n},{d}" for m, (n, d) in enumerate(self._digits())]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "kind": self.kind,
                "moments": [f"{n}/{d}" for n, d in self._digits()],
                "weights": [format_rational(w) for w in self.weights],
            }
        )

    def _digits(self) -> list[tuple[str, str]]:
        """Numerator and denominator digits of each moment.

        A computed denominator ``L_m`` past ``10**640`` is the kernel's ``D_m``
        (:func:`_chain`) over a cofactor g.  While g is below ``10**640`` too,
        ``L_m`` prints as ``D_m // g`` in exact ``decimal`` arithmetic, linear
        in the size of ``D_m``; any other goes through :func:`format_int`."""
        from decimal import MAX_EMAX, MAX_PREC, Context, Inexact

        leaf, texts = _POWERS[0], []
        if all(v.denominator < leaf for v in self.values):  # no chain needed
            return [(format_int(v.numerator), str(v.denominator)) for v in self.values]
        stride = 1 if any(self.values[1::2]) else 2  # the kernel's stride, see its docstring
        factors = _chain(self.weights, self.m_max, 2 if self.kind == "shifted" else 1, stride)
        context = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])
        chain = pending = digits = 1  # digits * pending == chain == D_m
        for v, factor in zip(self.values, factors):
            chain, pending, den = chain * factor, pending * factor, v.denominator
            near = leaf <= den and chain.bit_length() - den.bit_length() <= leaf.bit_length()
            g, rest = divmod(chain, den) if near else (0, 1)
            if not rest:  # the Decimal product starts at the first index that uses it
                digits, pending = context.multiply(digits, pending), 1
            texts.append((format_int(v.numerator),
                          format_int(den) if rest else str(context.divide_int(digits, g))))
        return texts


def _pascal_row(previous: list[int]) -> list[int]:
    """Next row of Pascal's triangle from the previous one."""
    return [1] + [previous[i - 1] + previous[i] for i in range(1, len(previous))] + [1]


def _chain(w: WeightVector, m_max: int, q: int, stride: int) -> list[int]:
    """Factors of ``D_m = f_1 * ... * f_m``: ``A (N**m - 1) q**stride`` if stride | m, else 1."""
    common, n_base = _integer_weights(w)[1], w.n_branches
    return [1] + [common * (n_base**m - 1) * q**stride if m % stride == 0 else 1
                  for m in range(1, m_max + 1)]


def _power_sums(w: WeightVector, offsets: Sequence[int], m_max: int) -> list[int]:
    """``[0, P_1, ..., P_{m_max}]``, ``P_j = sum_n p_n * c_n**j`` with c_n the offsets
    (see :func:`_self_similar_moments`), in O(N * m_max) products."""
    if m_max < 0:
        raise OutOfRange(f"m_max must be nonnegative, got {m_max}")
    branches = [(p_n, c) for p_n, c in zip(_integer_weights(w)[0], offsets) if p_n and c]
    power_sums, terms = [0], [p_n for p_n, _ in branches]
    for _ in range(m_max):
        terms = [t * c for t, (_, c) in zip(terms, branches)]
        power_sums.append(sum(terms))
    return power_sums


def _self_similar_moments(
    w: WeightVector, offsets: Sequence[int], m_max: int, q: int = 1
) -> tuple[list[int], list[int]]:
    """Unreduced moments ``E[Y**m] = u_m / D_m`` of ``Y = (c_n / q + Y') / N``.

    Branch n is taken with probability ``alpha_n = p_n / A``, A the lcm of
    the weight denominators.  With the integer power sums
    ``P_j = sum_n p_n * c_n**j`` and the step factors ``s_j = A * (N**j - 1)``,
    the moments ``X_m = E[(qY)**m]`` satisfy ``s_m X_m = sum_{i<m} C(m,i)
    P_{m-i} X_i``.  The stride r is 2 when every odd ``P_j`` vanishes
    (centred palindromic offsets): by induction every odd ``X_m`` is then 0,
    and an even one reads only even i.  Conversely, odd ``X_m`` that all
    vanish force every odd ``P_j`` to.  Else r is 1.  The loop keeps
    ``u_m = X_m * s_r * s_{2r} * ... * s_m`` for r | m, so

        u_m = sum_{i<m, r|i} C(m,i) P_{m-i} u_i * s_{i+r} * ... * s_{m-r},

    evaluated as a Horner sum over the step factors: one big-integer product
    per i, and no stored ``u_i`` is ever rescaled.  The power sums cost
    O(N * m_max) products and the steps O((m_max / r)**2) big products.
    Returns the numerators ``u_0..u_{m_max}`` and the denominators ``D_m``
    of :func:`_chain`, unreduced: a caller that prints values reduces each
    one (one gcd per index), and one that only compares or rounds them reads
    the integers as they are.
    """
    power_sums = _power_sums(w, offsets, m_max)
    stride = 1 if any(power_sums[1::2]) else 2
    factors = _chain(w, m_max, q, stride)
    steps = [f // q**stride for f in factors]  # s_j where the stride divides j
    scaled, row = [1], [1]  # scaled[i] == u_i
    for m in range(1, m_max + 1):
        row = _pascal_row(row)
        acc = power_sums[m]
        for i in range(stride, m if m % stride == 0 else 0, stride):
            acc = acc * steps[i] + row[i] * power_sums[m - i] * scaled[i]
        scaled.append(acc)
    denominators = [1]
    for factor in factors[1:]:
        denominators.append(denominators[-1] * factor)
    return scaled, denominators


def _moment_enclosure(w: WeightVector, m_max: int, bits: int) -> list[int]:
    """Integers ``lo_m`` with ``lo_m <= I_m * 2**bits <= lo_m + m`` for m = 0..m_max.

    The raw recurrence ``s_m I_m = sum_{i<m} C(m,i) P_{m-i} I_i`` of
    :func:`_self_similar_moments` (offsets ``0..N-1``), run in fixed point:
    ``lo_0 = 2**bits`` and ``lo_m = floor(sum_{i<m} C(m,i) P_{m-i} lo_i / s_m)``.
    The weights ``C(m,i) P_{m-i} / s_m`` are nonnegative, and as
    ``sum_{i<m} C(m,i) n**(m-i) = (n+1)**m - 1`` they sum to
    ``sum_n alpha_n ((n+1)**m - 1) / (N**m - 1) <= 1``.  So if every earlier
    ``lo_i`` lies at most e below ``I_i * 2**bits`` and not above it, their
    weighted sum lies at most e below ``I_m * 2**bits`` and not above it, and
    the floor takes off less than 1 more: by induction from the exact
    ``lo_0``, ``I_m * 2**bits - lo_m`` is in ``[0, m)`` for m >= 1.  One floor division
    per index, and O(m_max**2) products of integers of O(bits + m_max * log N)
    bits, where the exact kernel's grow to O(m_max**2 * log N).
    """
    power_sums = _power_sums(w, range(w.n_branches), m_max)
    common, n_base = _integer_weights(w)[1], w.n_branches
    lows, row = [1 << bits], [1]  # lows[i] == lo_i
    for m in range(1, m_max + 1):
        row = _pascal_row(row)
        total = sum(row[i] * power_sums[m - i] * lows[i] for i in range(m))
        lows.append(total // (common * (n_base**m - 1)))
    return lows


def exact_moments(w: WeightVector, m_max: int) -> MomentSequence:
    """Exact raw moments ``I_0..I_{m_max}``: branch offsets ``0..N-1``."""
    values = tuple(map(Fraction, *_self_similar_moments(w, range(w.n_branches), m_max)))
    return MomentSequence(weights=w, kind="raw", values=values)


def shifted_moments(w: WeightVector, m_max: int) -> MomentSequence:
    """Exact moments ``J_0..J_{m_max}`` of the measure moved to ``[-1/2, 1/2]``.

    The same recurrence as :func:`exact_moments` with branch offsets
    ``(2n - N + 1) / 2``.
    """
    n_base = w.n_branches
    offsets = range(1 - n_base, n_base, 2)
    values = tuple(map(Fraction, *_self_similar_moments(w, offsets, m_max, q=2)))
    return MomentSequence(weights=w, kind="shifted", values=values)
