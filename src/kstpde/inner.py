"""Sprecher constants and the Koeppen-corrected inner function psi.

The inner function is tabulated on the grid of terminating base-gamma
rationals, extended periodically outside [0, 1], and differentiated by
forward differences with step gamma**-k.  Grid points and the shift
constant ``a`` are exact rationals; psi node values are exact integers over
one common denominator, viewed as float64 for evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .bvp import write_csv

__all__ = [
    "KstParams",
    "GridD",
    "PsiTable",
    "MonotonicityError",
    "build_grid",
    "compute_constants",
    "build_psi",
    "build_psi_peak_bytes",
    "psi_eval",
    "psi_jet",
    "psi_derivative",
    "psi_inverse",
    "z_map",
    "export_psi_csv",
    "export_derivs_csv",
]

FMT = "%.17g"  # fixed 17-significant-digit decimal formatting for exports


class MonotonicityError(RuntimeError):
    """The psi table is not strictly increasing.

    From ``build_psi`` (exact values) this signals an implementation bug.
    From ``SliceProblem`` it means the float64 view of a valid table has
    lost strict monotonicity to rounding, so slices cannot invert psi.
    """

    def __init__(self, d_left, v_left, d_right, v_right):
        self.nodes = (d_left, d_right)
        self.values = (v_left, v_right)
        super().__init__(
            f"psi not strictly increasing between d={d_left} (psi={v_left}) "
            f"and d={d_right} (psi={v_right})"
        )


@dataclass(frozen=True)
class KstParams:
    """Global configuration of the superposition representation."""

    n: int
    gamma: int
    k: int
    a: Fraction
    alpha: tuple[Fraction, ...]
    series_terms: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"dimension n must be >= 1, got {self.n}")
        if self.gamma < 2 * self.n + 2:
            raise ValueError(
                f"gamma={self.gamma} violates gamma >= 2n+2 = {2 * self.n + 2}"
            )
        if self.k < 1:
            raise ValueError(f"depth k must be >= 1, got {self.k}")
        if self.a != Fraction(1, self.gamma * (self.gamma - 1)):
            raise ValueError("a must equal 1/(gamma*(gamma-1)) exactly")
        if len(self.alpha) != self.n:
            raise ValueError("need exactly n alpha coefficients")
        if self.alpha[0] != 1:
            raise ValueError("alpha_1 must equal 1")
        for p in range(1, len(self.alpha)):
            if not (0 < self.alpha[p] < self.alpha[p - 1]):
                raise ValueError("alpha coefficients must be positive and decreasing")

    @cached_property
    def alpha_float(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.alpha)


@dataclass(frozen=True)
class GridD:
    """All gamma^k terminating rationals with a k-digit base-gamma expansion."""

    gamma: int
    k: int

    def __len__(self):
        return self.gamma**self.k

    @cached_property
    def points(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, len(self)) for m in range(len(self)))


def build_grid(gamma: int, k: int) -> GridD:
    """Enumerate the grid d = sum_j i_j / gamma^j, sorted ascending.

    Spacing between consecutive points is exactly gamma**-k and the
    points span [0, 1 - gamma**-k].
    """
    if not isinstance(gamma, int) or not isinstance(k, int):
        raise TypeError("gamma and k must be integers")
    if gamma < 2:
        raise ValueError(f"gamma must be >= 2, got {gamma}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return GridD(gamma=gamma, k=k)


def compute_constants(
    n: int, gamma: int, series_terms: int = 8, k: int = 1
) -> KstParams:
    """Compute the shift constant a and coefficients alpha_p.

    a = 1/(gamma*(gamma-1)) exactly.  alpha_1 = 1; for p >= 2 the
    coefficient is the truncated series

        alpha_p = sum_{r=1}^{series_terms} gamma**-((p-1)*(1+n+...+n^(r-1)))

    kept as an exact rational.
    """
    if not isinstance(gamma, int) or not isinstance(n, int):
        raise TypeError("n and gamma must be integers")
    if gamma < 2 * n + 2:
        raise ValueError(f"gamma={gamma} violates gamma >= 2n+2 = {2 * n + 2}")
    if series_terms < 4:
        raise ValueError(f"series_terms must be >= 4, got {series_terms}")
    a = Fraction(1, gamma * (gamma - 1))
    alpha = [Fraction(1)]
    for p in range(2, n + 1):
        s = Fraction(0)
        for r in range(1, series_terms + 1):
            exponent = (p - 1) * sum(n**j for j in range(r))  # (p-1)(1 + n + ... + n^(r-1))
            s += Fraction(1, gamma**exponent)
        alpha.append(s)
    return KstParams(
        n=n, gamma=gamma, k=k, a=a, alpha=tuple(alpha), series_terms=series_terms
    )


@dataclass(frozen=True)
class PsiTable:
    """psi tabulated on GridD, with the node at 1 appended (psi(1) = 1).

    The exact node values are ``numerators[m] / denominator``;
    ``nodes``/``values`` are float64 views used for linear interpolation.
    """

    grid: GridD
    numerators: tuple[int, ...] = field(repr=False)
    denominator: int
    nodes: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)

    @property
    def gamma(self) -> int:
        return self.grid.gamma

    @property
    def k(self) -> int:
        return self.grid.k

    @cached_property
    def exact_values(self) -> tuple[Fraction, ...]:
        """The rational node values, for exact cross-checks."""
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    @cached_property
    def delta(self) -> float:
        """Differencing step, gamma**-k rounded once."""
        return 1 / self.gamma**self.k


def _psi_numerators(gamma: int, n: int, k: int) -> tuple[list[int], int]:
    """psi at m/gamma^k, m = 0..gamma^k, as integers over Q_k (returned second).

    Level l has denominator Q_l = 2^(l-1) gamma^(1+n+...+n^(l-1)); level 1
    is the identity m/gamma.  Trailing digit i < gamma-1 adds
    i gamma^-(1+n+...+n^(l-1)) = i 2^(l-1)/Q_l to the prefix's level-(l-1)
    value; digit gamma-1 averages its left neighbour at level l and its
    right neighbour at level l-1 (Koeppen's fix).  psi(1) = 1 is appended.
    """
    nums, q = list(range(gamma + 1)), gamma
    for level in range(2, k + 1):
        scale = 2 * gamma ** (n ** (level - 1))  # Q_l / Q_(l-1)
        digits = [i * 2 ** (level - 1) for i in range(gamma - 1)]
        out = []
        for prev, nxt in zip(nums, nums[1:]):
            base = prev * scale
            out += [base + d for d in digits]
            total = out[-1] + nxt * scale
            assert total % 2 == 0  # both terms are even, so the halving is exact
            out.append(total // 2)
        q *= scale
        nums = out + [q]
    return nums, q


def build_psi_peak_bytes(gamma: int, n: int, k: int) -> float:
    """Modelled peak memory of ``build_psi`` at depth k, in bytes.

    Three times gamma^k + 1 integers the size of Q_k, each a 24-byte
    CPython int header plus one 4-byte digit per 30 bits; the factor 3
    covers the previous level, the list pointers and the temporaries, and
    keeps the model above the measured peak at k = 5 and 6.  Q_k's bit
    length is taken from logarithms, b = (k-1) + log2(gamma) (1 + n + ... +
    n^(k-1)), so Q_k is never formed; inf when the float arithmetic
    overflows.
    """
    try:
        # 1 + n + ... + n^(k-1)
        powers = float(k) if n == 1 else (float(n) ** k - 1.0) / (n - 1)
        bits = (k - 1) + math.log2(gamma) * powers
        return 3.0 * (float(gamma) ** k + 1.0) * (24 + 4 * math.ceil(bits / 30))
    except OverflowError:
        return math.inf


def build_psi(params: KstParams) -> PsiTable:
    """Build the psi table for params.gamma, params.k.

    Raises MonotonicityError if the produced values are not strictly
    increasing across the grid.
    """
    gamma, k = params.gamma, params.k
    nums, q = _psi_numerators(gamma, params.n, k)
    size = gamma**k
    for i, (lo, hi) in enumerate(zip(nums, nums[1:])):
        if not lo < hi:
            raise MonotonicityError(
                Fraction(i, size), Fraction(lo, q), Fraction(i + 1, size), Fraction(hi, q)
            )
    values = np.array([v / q for v in nums])  # int / int rounds correctly, as float(Fraction)
    return PsiTable(build_grid(gamma, k), tuple(nums), q, np.arange(size + 1) / size, values)


def psi_eval(table: PsiTable, x):
    """Evaluate psi(x) for any finite real x (scalar or array).

    Inside [0, 1) the value is linear interpolation between grid nodes;
    outside, psi(x) = psi(x - floor(x)) + floor(x).
    """
    x = np.asarray(x, dtype=float)
    base = np.floor(x)
    frac = x - base
    out = np.interp(frac, table.nodes, table.values) + base
    return float(out) if out.ndim == 0 else out


def psi_jet(table: PsiTable, x, order: int) -> list:
    """[psi, psi', ..., psi^(order)] at x, order 1..3, from one difference table.

    psi is evaluated once at each of x, x+D, ..., x+order*D with
    D = gamma**-k, each point the previous one plus D.  Entry j is the j-th
    forward difference of those values divided by D**j, each level the
    forward difference of the level below.  Points past the tabulated
    period rely on the periodic extension of psi.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    d = table.delta
    points = [np.asarray(x, dtype=float)]
    for _ in range(order):
        points.append(points[-1] + d)
    diffs = [psi_eval(table, p) for p in points]
    jet = [diffs[0]]
    for _ in range(order):
        diffs = [(hi - lo) / d for lo, hi in zip(diffs, diffs[1:])]
        jet.append(diffs[0])
    return jet


def psi_derivative(table: PsiTable, order: int, x):
    """Forward-difference derivative of psi of the given order (1..3):
    the last entry of ``psi_jet(table, x, order)``."""
    return psi_jet(table, x, order)[order]


def psi_eval_exact(table: PsiTable, x: Fraction) -> Fraction:
    """Exact piecewise-linear evaluation for rational x.

    Same interpolant as psi_eval but free of float rounding; used by the
    exact inverse and by cross-check oracles.
    """
    if not isinstance(x, Fraction):
        x = Fraction(x)
    base = x.numerator // x.denominator
    frac = x - base
    denom = table.gamma**table.k
    m = (frac.numerator * denom) // frac.denominator  # floor(frac * gamma^k)
    if m >= denom:
        m = denom - 1
    left = Fraction(m, denom)
    v_left = table.exact_values[m]
    v_right = table.exact_values[m + 1]
    return v_left + (frac - left) * denom * (v_right - v_left) + base


def psi_inverse_exact(table: PsiTable, y: Fraction) -> Fraction:
    """Exact inverse of the piecewise-linear interpolant on [0, 1].

    Bisection over node values followed by an exact linear solve; the
    roundtrip with psi_eval_exact is exact because the interpolant is
    strictly increasing.
    """
    import bisect

    if not isinstance(y, Fraction):
        y = Fraction(y)
    if y < 0 or y > 1:
        raise ValueError(f"y={y} outside the range of psi over [0, 1], which is [0, 1]")
    values = table.exact_values
    m = bisect.bisect_right(values, y) - 1
    if m >= len(values) - 1:
        m = len(values) - 2
    denom = table.gamma**table.k
    v_left, v_right = values[m], values[m + 1]
    return Fraction(m, denom) + (y - v_left) / (v_right - v_left) / denom


def psi_inverse(table: PsiTable, y):
    """Invert the strictly increasing piecewise-linear psi on [0, 1].

    Accepts y in [0, 1] (the closed range of psi over the base period).
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0) or np.any(y_arr > 1.0):
        raise ValueError(
            f"y={y} outside the range of psi over [0, 1], which is [0, 1]"
        )
    out = np.interp(y_arr, table.values, table.nodes)
    return float(out) if out.ndim == 0 else out


def z_map(params: KstParams, table: PsiTable, x: Sequence[float]):
    """Aggregate map z(x) = sum_p alpha_p * psi(x_p)."""
    if len(x) != params.n:
        raise ValueError(f"x must have length n={params.n}, got {len(x)}")
    alpha = params.alpha_float
    return sum(a_p * psi_eval(table, x_p) for a_p, x_p in zip(alpha, x))


def export_psi_csv(table: PsiTable, path) -> None:
    """Write the node table as CSV with header d,psi."""
    write_csv(path, ["d", "psi"], np.column_stack([table.nodes, table.values]))


def export_derivs_csv(table: PsiTable, xs, path) -> None:
    """Write x,psi,dpsi,d2psi rows at the given query points."""
    xs = np.asarray(xs, dtype=float)
    columns = [np.atleast_1d(c) for c in (xs, *psi_jet(table, xs, 2))]
    write_csv(path, ["x", "psi", "dpsi", "d2psi"], np.column_stack(columns))
