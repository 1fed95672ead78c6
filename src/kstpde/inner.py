"""Sprecher constants and the Koeppen-corrected inner function psi.

The inner function is tabulated on the grid of terminating base-gamma
rationals and extended periodically outside [0, 1].  Grid points and the
shift constant ``a`` are exact rationals; psi node values are exact
integers over one common denominator, viewed as float64 for evaluation.

The limit psi is not differentiable, so its derivatives are regularised at
the grid scale: psi' is the forward difference (psi(x + D) - psi(x))/D with
step D = gamma**-k, and psi'' the same forward difference of psi'.  For the
piecewise-linear table both are linear interpolations of node tables
formed from the exact integer increments, so no psi values are subtracted
in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
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
    lost strict monotonicity to rounding, so ``x1_of_z`` cannot invert psi.
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
    ``slopes[m]`` is the slope of cell m, its exact increment over
    gamma**-k rounded once, with ``slopes[gamma**k] = slopes[0]`` from the
    periodic extension: psi' at node m.
    """

    grid: GridD
    numerators: tuple[int, ...] = field(repr=False)
    denominator: int
    nodes: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)
    slopes: np.ndarray = field(repr=False, compare=False)

    @property
    def gamma(self) -> int:
        return self.grid.gamma

    @property
    def k(self) -> int:
        return self.grid.k

    @cached_property
    def delta(self) -> float:
        """Differencing step, gamma**-k rounded once."""
        return 1 / self.gamma**self.k

    @cached_property
    def derivative_nodes(self) -> np.ndarray:
        """psi' and psi'' at nodes 0..gamma**k + 1, as two rows: ``slopes``
        and their forward differences times gamma**k, both periodic."""
        slopes = np.append(self.slopes, self.slopes[1])
        return np.stack([slopes, np.diff(slopes, append=slopes[2]) * len(self.grid)])


def _psi_increments(gamma: int, n: int, k: int) -> tuple[list[int], int]:
    """The cell increments N_(m+1) - N_m, m = 0..gamma^k - 1, of psi's node
    numerators N_m over Q_k (returned second).

    Level l has denominator Q_l = 2^(l-1) gamma^(1+n+...+n^(l-1)); level 1
    is the identity m/gamma, every increment 1.  Trailing digit i < gamma-1
    adds i gamma^-(1+n+...+n^(l-1)) = i 2^(l-1)/Q_l to the prefix's
    level-(l-1) value, and digit gamma-1 averages its left neighbour at level
    l and its right neighbour at level l-1 (Koeppen's fix).  So a parent cell
    of increment D, D scale over Q_l with scale = Q_l/Q_(l-1), splits into
    gamma-2 cells of 2^(l-1) and two cells of (D scale - (gamma-2) 2^(l-1))/2.
    A level has at most l distinct increments, so each is split once.
    """
    incs, q = [1] * gamma, gamma
    for level in range(2, k + 1):
        scale = 2 * gamma ** (n ** (level - 1))
        unit = 2 ** (level - 1)
        split = {}
        for d in set(incs):
            rest = d * scale - (gamma - 2) * unit
            assert rest % 2 == 0  # both terms are even, so the halving is exact
            split[d] = [unit] * (gamma - 2) + [rest // 2] * 2
        incs = list(chain.from_iterable(map(split.__getitem__, incs)))
        q *= scale
    return incs, q


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

    Raises MonotonicityError if an exact cell increment is not positive.
    """
    gamma, k = params.gamma, params.k
    incs, q = _psi_increments(gamma, params.n, k)
    nums = tuple(accumulate(incs, initial=0))
    size = gamma**k
    if min(incs) <= 0:
        m = next(m for m, inc in enumerate(incs) if inc <= 0)
        raise MonotonicityError(
            Fraction(m, size), Fraction(nums[m], q), Fraction(m + 1, size), Fraction(nums[m + 1], q)
        )
    # v / q for each numerator v: int / int rounds correctly, as float(Fraction)
    values = np.fromiter(map(q.__rtruediv__, nums), float, size + 1)
    # gamma**k divides Q_k, so a slope is one integer quotient, rounded once;
    # the increments take at most k values, each divided once
    cell = q // size
    rate = {inc: inc / cell for inc in set(incs)}
    slopes = np.fromiter(map(rate.__getitem__, chain(incs, incs[:1])), float, size + 1)
    nodes = np.arange(size + 1) / size
    return PsiTable(build_grid(gamma, k), nums, q, nodes, values, slopes)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def psi_eval(table: PsiTable, x):
    """Evaluate psi(x) for any finite real x (scalar or array).

    Inside [0, 1) the value is linear interpolation between grid nodes;
    outside, psi(x) = psi(x - floor(x)) + floor(x).
    """
    x = np.asarray(x, dtype=float)
    base = np.floor(x)
    frac = x - base
    return _scalar_or_array(np.interp(frac, table.nodes, table.values) + base)


_SPLIT = 2.0**26  # (frac + _SPLIT) - _SPLIT is frac rounded to a multiple of 2**-26


def _cell(table: PsiTable, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell index m in 0..gamma**k and offset t in [0, 1] with
    frac(x) gamma**k = m + t.

    One float product frac(x) * gamma**k would misplace t by up to
    gamma**k * 2**-53.  frac's leading 26 bits times gamma**k < 2**26 are
    exact, and the remainder's product errs by about gamma**k * 2**-80, so
    t carries about one rounding.
    """
    size = len(table.grid)
    frac = x - np.floor(x)
    hi = (frac + _SPLIT) - _SPLIT
    p_hi = size * hi
    whole = np.floor(p_hi)
    rest = (p_hi - whole) + size * (frac - hi)
    carry = np.floor(rest)  # -1, 0 or 1
    return (whole + carry).astype(np.intp), rest - carry


def psi_jet(table: PsiTable, x) -> list:
    """[psi, psi', psi''] at x (scalar or array).

    psi' is the forward difference (psi(x + D) - psi(x))/D at D = gamma**-k
    and psi'' the same difference of psi'.  On the piecewise-linear table
    they are the linear interpolations of ``derivative_nodes`` between the
    nodes around x, so psi is evaluated once.
    """
    x = np.asarray(x, dtype=float)
    m, t = _cell(table, x)
    m_next, t_left = m + 1, 1.0 - t
    jet = [psi_eval(table, x)]
    for at_nodes in table.derivative_nodes:
        jet.append(_scalar_or_array(t_left * at_nodes[m] + t * at_nodes[m_next]))
    return jet


def psi_derivative(table: PsiTable, order: int, x):
    """Forward-difference derivative of psi of order 1 or 2: entry
    ``order`` of ``psi_jet(table, x)``."""
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return psi_jet(table, x)[order]


def psi_inverse(table: PsiTable, y):
    """Invert the strictly increasing piecewise-linear psi on [0, 1].

    Accepts y in [0, 1] (the closed range of psi over the base period).
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0) or np.any(y_arr > 1.0):
        raise ValueError(
            f"y={y} outside the range of psi over [0, 1], which is [0, 1]"
        )
    return _scalar_or_array(np.interp(y_arr, table.values, table.nodes))


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
    columns = [np.atleast_1d(c) for c in (xs, *psi_jet(table, xs))]
    write_csv(path, ["x", "psi", "dpsi", "d2psi"], np.column_stack(columns))
