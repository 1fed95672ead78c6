"""Sprecher constants and the Koeppen-corrected inner function psi.

The inner function is tabulated on the grid of terminating base-gamma
rationals, extended periodically outside [0, 1], and differentiated by
forward differences with step gamma**-k.  Grid points and the shift
constant ``a`` are kept as exact rationals; psi node values are computed
in exact rational arithmetic and cached as float64 for evaluation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "KstParams",
    "GridD",
    "PsiTable",
    "MonotonicityError",
    "build_grid",
    "compute_constants",
    "build_psi",
    "psi_eval",
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


def _geom_sum(n: int, length: int) -> int:
    """1 + n + n^2 + ... + n^(length-1), exact (equals (n^length-1)/(n-1))."""
    return sum(n**j for j in range(length))


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

    @property
    def alpha_float(self) -> tuple[float, ...]:
        return tuple(float(x) for x in self.alpha)


@dataclass(frozen=True)
class GridD:
    """All gamma^k terminating rationals with a k-digit base-gamma expansion."""

    gamma: int
    k: int
    points: tuple[Fraction, ...]

    def __len__(self):
        return len(self.points)


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
    denom = gamma**k
    points = tuple(Fraction(m, denom) for m in range(denom))
    return GridD(gamma=gamma, k=k, points=points)


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
            exponent = (p - 1) * _geom_sum(n, r)
            s += Fraction(1, gamma**exponent)
        alpha.append(s)
    return KstParams(
        n=n, gamma=gamma, k=k, a=a, alpha=tuple(alpha), series_terms=series_terms
    )


@dataclass(frozen=True)
class PsiTable:
    """psi tabulated on GridD, with the node at 1 appended (psi(1) = 1).

    ``nodes``/``values`` are float64 views used for linear interpolation;
    ``exact_values`` keeps the rational node values for cross-checks.
    """

    grid: GridD
    exact_values: tuple[Fraction, ...]
    nodes: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)

    @property
    def gamma(self) -> int:
        return self.grid.gamma

    @property
    def k(self) -> int:
        return self.grid.k

    @property
    def delta(self) -> float:
        """Differencing step, exactly gamma**-k."""
        return float(Fraction(1, self.gamma**self.k))


def _psi_exact(gamma: int, n: int):
    """Exact recursive evaluator for psi at m/gamma^level.

    Three branches: identity at level 1; for trailing digit i < gamma-1
    the digit contributes gamma**-(1+n+...+n^(level-1)) times i on top of
    the level-(level-1) value; for trailing digit gamma-1 the value is the
    average of the left neighbour at the same level and the right
    neighbour at the previous level (the Koeppen monotonicity fix).
    """

    @lru_cache(maxsize=None)
    def rec(m: int, level: int) -> Fraction:
        if m == gamma**level:
            return Fraction(1)  # psi(1) = 1, consistent with the periodic extension
        if level == 1:
            return Fraction(m, gamma)
        i_last = m % gamma
        if i_last < gamma - 1:
            return rec((m - i_last) // gamma, level - 1) + Fraction(
                i_last, gamma ** _geom_sum(n, level)
            )
        return (rec(m - 1, level) + rec((m + 1) // gamma, level - 1)) / 2

    return rec


def build_psi(params: KstParams) -> PsiTable:
    """Build the psi table for params.gamma, params.k.

    Raises MonotonicityError if the produced values are not strictly
    increasing across the grid.
    """
    gamma, k, n = params.gamma, params.k, params.n
    grid = build_grid(gamma, k)
    rec = _psi_exact(gamma, n)
    exact = [rec(m, k) for m in range(gamma**k)]
    exact.append(Fraction(1))
    for i in range(len(exact) - 1):
        if not exact[i] < exact[i + 1]:
            d_left = grid.points[i]
            d_right = grid.points[i + 1] if i + 1 < len(grid.points) else Fraction(1)
            raise MonotonicityError(d_left, exact[i], d_right, exact[i + 1])
    nodes = np.array([float(p) for p in grid.points] + [1.0])
    values = np.array([float(v) for v in exact])
    return PsiTable(grid=grid, exact_values=tuple(exact), nodes=nodes, values=values)


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


def psi_derivative(table: PsiTable, order: int, x):
    """Forward-difference derivative of psi of the given order (1..3).

    Order 1 is (psi(x+D) - psi(x))/D with D = gamma**-k; higher orders
    apply the same forward difference to the lower-order result.  Points
    past the tabulated period rely on the periodic extension of psi.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    d = table.delta
    if order == 1:
        return (psi_eval(table, np.asarray(x, dtype=float) + d) - psi_eval(table, x)) / d
    lower = psi_derivative(table, order - 1, np.asarray(x, dtype=float) + d)
    return (lower - psi_derivative(table, order - 1, x)) / d


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "psi"])
        for d, v in zip(table.nodes, table.values):
            w.writerow([FMT % d, FMT % v])


def export_derivs_csv(table: PsiTable, xs, path) -> None:
    """Write x,psi,dpsi,d2psi rows at the given query points."""
    xs = np.asarray(xs, dtype=float)
    p0 = psi_eval(table, xs)
    p1 = psi_derivative(table, 1, xs)
    p2 = psi_derivative(table, 2, xs)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "psi", "dpsi", "d2psi"])
        for row in zip(np.atleast_1d(xs), np.atleast_1d(p0),
                       np.atleast_1d(p1), np.atleast_1d(p2)):
            w.writerow([FMT % v for v in row])
