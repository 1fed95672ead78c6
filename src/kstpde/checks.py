"""Invariant oracles of the pipeline, one function each.

``kstpde verify``, ``kstpde taylor-check``, the acceptance gate and the
unit tests all call these functions.  A function returns a pass flag, a
measured quantity, or both; callers whose inputs differ pass them in,
and time bounds stay with the callers.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .combinatorics import bell_polynomial, enumerate_partitions, faa_di_bruno
from .inner import KstParams, PsiTable, build_psi, compute_constants
from .reduction import SliceProblem, _x1_jet, analytic_solution, default_source
from .taylor import OuterFunctionSet, shifted_exact_eval, taylor_kst_eval
from .variational import laplacian_residual

BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877, 4140)  # set partitions of 0..8 items
FD_STEP = 1e-2
FD_POINTS = {"exp_sin": (0.1, 0.3, 0.5, 0.7, 0.9), "log_poly": (0.35, 0.6, 0.85, 1.1, 1.4)}
TAYLOR_POINTS = ((0.2, 0.3), (0.55, 0.7), (0.85, 0.15))
TAYLOR_SHIFTS = (1e-2, 5e-3, 2.5e-3)
QUADRATURE_X2 = 0.37
QUADRATURE_CUBICS = ((0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (1.0, -2.0, 0.5, 3.0))


def constants(params: KstParams) -> tuple[bool, bool]:
    """(a = 1/(gamma (gamma - 1)) exactly, alpha_1 = 1 and alpha positive decreasing)."""
    alpha = params.alpha
    a_ok = params.a == Fraction(1, params.gamma * (params.gamma - 1))
    return a_ok, alpha[0] == 1 and all(0 < lo < hi for hi, lo in zip(alpha, alpha[1:]))


def psi_invariants(n: int, gamma: int, terms: int) -> tuple[bool, bool, bool]:
    """(strictly increasing, nested, inside [0, 1]) for the exact psi tables k = 1..4.

    Nested: the depth-k table at the depth-(k-1) grid points is the
    depth-(k-1) table.
    """
    tables = [build_psi(compute_constants(n, gamma, terms, k=k)) for k in range(1, 5)]
    monotone = nested = in_range = True
    for k, table in enumerate(tables):
        nums, q = table.numerators, table.denominator
        increasing = all(map(operator.lt, nums, nums[1:]))
        monotone &= increasing
        # a strictly increasing table lies in [0, 1] exactly when its ends do
        in_range &= increasing and nums[0] == 0 and nums[-1] <= q
        if k:  # cross-multiplied; the coarse table without its appended psi(1)
            cq, coarse = tables[k - 1].denominator, tables[k - 1].numerators[:-1]
            nested &= all(v * cq == c * q for v, c in zip(nums[::gamma], coarse))
    return monotone, nested, in_range


def brute_force_partitions(m: int, k: int) -> list[tuple[int, ...]]:
    """Filter the full cartesian product.  Entries above k already violate
    the block-count constraint, so range(k+1) loses nothing."""
    return sorted(
        j
        for j in itertools.product(range(k + 1), repeat=m - k + 1)
        if sum(j) == k and sum(i * ji for i, ji in enumerate(j, 1)) == m
    )


def partitions_complete(ms) -> bool:
    """enumerate_partitions(m, k) equals the brute-force filter, in order,
    for every m in ``ms`` and k <= m."""
    return all(
        enumerate_partitions(m, k) == brute_force_partitions(m, k)
        for m in ms
        for k in range(m + 1)
    )


def bell_numbers(max_m: int) -> tuple[bool, list[float]]:
    """Whether the row sums sum_k B_{m,k}(1, ..., 1) equal the Bell numbers
    to 1e-9 for m = 0..max_m, and the row sums."""
    values = [
        sum(bell_polynomial(m, k, [1.0] * (m + 1)) for k in range(m + 1))
        for m in range(max_m + 1)
    ]
    return all(abs(v - b) < 1e-9 for v, b in zip(values, BELL_NUMBERS)), values


def central_fd(fn, x: float, order: int) -> float:
    """4th-order accurate central difference, weights from the Taylor-matrix solve."""
    half = (order + 3) // 2 + 1
    offsets = range(-half, half + 1)
    mat = np.array([[o**p / math.factorial(p) for o in offsets] for p in range(len(offsets))])
    w = np.linalg.solve(mat, np.eye(len(offsets))[order])
    return sum(wi * fn(x + o * FD_STEP) for wi, o in zip(w, offsets)) / FD_STEP**order


_COMPOSITIONS = {
    "exp_sin": lambda t: math.exp(math.sin(t)),
    "log_poly": lambda t: math.log(1.0 + t * t),
}


def faa_di_bruno_vs_fd(case: str, m: int, x: float) -> tuple[float, float]:
    """(Faa di Bruno's m-th derivative of the composition ``case`` at x,
    its central finite difference)."""
    if case == "exp_sin":
        sin_cycle = (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))
        f_jet = [math.exp(math.sin(x))] * (m + 1)
        g_jet = [sin_cycle[i % 4] for i in range(m)]
    else:
        y = 1.0 + x * x
        f_jet = [math.log(y)] + [
            (-1.0) ** (j - 1) * math.factorial(j - 1) / y**j for j in range(1, m + 1)
        ]
        g_jet = ([2.0 * x, 2.0] + [0.0] * m)[:m]
    got = faa_di_bruno(m, f_jet, g_jet)
    return got, central_fd(_COMPOSITIONS[case], x, m)


def faa_di_bruno_fd_oracle(max_m: int) -> bool:
    """Faa di Bruno matches the finite differences to relative 1e-4 at every
    sample point for orders 1..max_m.  log_poly has derivatives near zero,
    so its tolerance is relative to max(|reference|, 1e-8)."""
    for case, floor in (("exp_sin", 0.0), ("log_poly", 1e-8)):
        for m in range(1, max_m + 1):
            for x in FD_POINTS[case]:
                got, ref = faa_di_bruno_vs_fd(case, m, x)
                if not abs(got - ref) <= 1e-4 * max(abs(ref), floor):
                    return False
    return True


def bell_scaling(m: int, k: int, q: float, args) -> tuple[float, float]:
    """(B_{m,k}(q a_1, q^2 a_2, ...), q^m B_{m,k}(a_1, a_2, ...)); equal by homogeneity."""
    scaled = [q ** (i + 1) * a for i, a in enumerate(args)]
    return bell_polynomial(m, k, scaled), q**m * bell_polynomial(m, k, args)


def bell_homogeneity() -> bool:
    """Bell scaling identity to relative 1e-10 on 100 random cases
    (m <= 6, q in [0.1, 10], arguments in [-3, 3], seed 2024)."""
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))
        q = float(rng.uniform(0.1, 10.0))
        lhs, rhs = bell_scaling(m, k, q, rng.uniform(-3.0, 3.0, size=m - k + 1))
        ok &= abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    return ok


def cubic_outer(seed: int, count: int) -> OuterFunctionSet:
    """``count`` cubic outer functions with standard-normal coefficients."""
    rng = np.random.default_rng(seed)
    return OuterFunctionSet.from_polynomials([rng.standard_normal(4) for _ in range(count)])


def taylor_order(
    outer: OuterFunctionSet, M: int, params: KstParams, table: PsiTable
) -> tuple[list[float], float]:
    """Truncation order of the order-M Taylor form: its largest error against
    the shifted exact form at each shift in TAYLOR_SHIFTS, and the slope of
    log(error) over log(shift), expected above M + 0.5."""
    errors = [
        max(
            abs(
                shifted_exact_eval(outer, x, a, table, params)
                - taylor_kst_eval(outer, x, M, table, params, a=a)
            )
            for x in TAYLOR_POINTS
        )
        for a in TAYLOR_SHIFTS
    ]
    return errors, float(np.polyfit(np.log(TAYLOR_SHIFTS), np.log(errors), 1)[0])


@functools.cache
def _gauss_legendre_40() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 40-point Gauss-Legendre rule on [-1, 1],
    read-only because every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quadrature_transfer_error(coeffs, params: KstParams, table: PsiTable) -> float:
    """|int_0^1 p dx1 - int p(x1(z)) dx1/dz dz| on the slice x2 = 0.37,
    the z integral by 40-point Gauss-Legendre."""
    poly = np.polynomial.Polynomial(coeffs)
    sp = SliceProblem(x2_tilde=QUADRATURE_X2, params=params, table=table)
    z_min, z_max = sp.bounds
    nodes, weights = _gauss_legendre_40()
    z = (z_max - z_min) * (nodes + 1.0) / 2.0 + z_min
    x1, (_, dpsi, _) = _x1_jet(z, sp)  # one inversion for x1 and dx1/dz
    integrand = poly(x1) * (1.0 / (params.alpha_float[0] * dpsi))
    transferred = (z_max - z_min) / 2.0 * np.sum(weights * integrand)
    direct = poly.integ()(1.0) - poly.integ()(0.0)
    return float(abs(direct - transferred))


def quadrature_transfer(params: KstParams, table: PsiTable) -> bool:
    """The change of variables integrates each of QUADRATURE_CUBICS to 1e-10."""
    return all(quadrature_transfer_error(c, params, table) <= 1e-10 for c in QUADRATURE_CUBICS)


def analytic_laplacian_residual(seed: int) -> tuple[bool, float]:
    """Whether the five-point Laplacian of the analytic solution matches +f
    or -f to 1e-5 at 40 random interior points, and its largest residual
    against +f."""
    pts = np.random.default_rng(seed).uniform(0.05, 0.95, size=(40, 2))
    res_plus_f, res_minus_f = laplacian_residual(analytic_solution, default_source, pts)
    return bool(np.all(np.minimum(res_plus_f, res_minus_f) <= 1e-5)), float(res_plus_f.max())
