"""Reduction of the 2-D Poisson problem to one-dimensional slice BVPs.

At truncation order zero the superposition collapses to a single unknown
U(z) per fixed second coordinate.  Each slice carries a second-order ODE
with psi-dependent coefficients, Dirichlet-zero endpoint conditions
(after dividing out the nonzero endpoint brackets), and maps back to the
2-D field through the aggregate variable z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from .bvp import BvpProblem, BvpSolution, newton_solve, write_csv
from .inner import (
    KstParams,
    MonotonicityError,
    PsiTable,
    psi_derivative,
    psi_eval,
    psi_inverse,
)

__all__ = [
    "SliceProblem",
    "OdeCoefficients",
    "Field2D",
    "SliceReport",
    "DegenerateBoundaryError",
    "SingularJacobianError",
    "default_source",
    "slice_bounds",
    "x1_of_z",
    "jacobian_factor",
    "ode_coefficients",
    "first_order_system",
    "boundary_conditions",
    "analytic_solution",
    "solve_slice",
    "reduced_closed_form",
    "compare_slice",
    "reconstruct_field",
    "export_field_csv",
]


class DegenerateBoundaryError(RuntimeError):
    """An endpoint bracket coefficient is numerically zero; the condition
    at that endpoint is vacuous rather than Dirichlet."""


class SingularJacobianError(RuntimeError):
    """psi' vanished where the change of variables requires dividing by it."""


def default_source(x1, x2):
    """Right-hand side of the test problem: sin(pi x1) sin(pi x2)."""
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def analytic_solution(x1, x2):
    """Exact solution of the Poisson test problem with zero boundary data."""
    return np.sin(np.pi * x1) * np.sin(np.pi * x2) / (-2.0 * np.pi**2)


@dataclass(frozen=True)
class SliceProblem:
    """Reduced problem at fixed second coordinate."""

    x2_tilde: float
    params: KstParams
    table: PsiTable
    rhs: Callable = default_source

    def __post_init__(self):
        if not 0.0 <= self.x2_tilde <= 1.0:
            raise ValueError(f"x2_tilde must lie in [0, 1], got {self.x2_tilde}")
        # psi_inverse interpolates over the float64 view of the table, which
        # loses strict monotonicity once node increments drop below rounding
        flat = np.flatnonzero(~(np.diff(self.table.values) > 0.0))
        if flat.size:
            i = int(flat[0])
            nodes, values = self.table.nodes, self.table.values
            raise MonotonicityError(nodes[i], values[i], nodes[i + 1], values[i + 1])

    @property
    def bounds(self) -> tuple[float, float]:
        return slice_bounds(self.x2_tilde, self.params, self.table)


def slice_bounds(x2_tilde: float, params: KstParams, table: PsiTable):
    """z-interval of the slice: [alpha_2 psi(x2~), alpha_1 + alpha_2 psi(x2~)]."""
    if not 0.0 <= x2_tilde <= 1.0:
        raise ValueError(f"x2_tilde must lie in [0, 1], got {x2_tilde}")
    a1, a2 = params.alpha_float[:2]
    z_min = a2 * psi_eval(table, x2_tilde)
    return z_min, a1 + z_min


def x1_of_z(z, x2_tilde: float, params: KstParams, table: PsiTable):
    """Invert the aggregate variable on a slice: x1 = psi^-1((z - z_min)/alpha_1)."""
    z_min, z_max = slice_bounds(x2_tilde, params, table)
    z_arr = np.asarray(z, dtype=float)
    eps = 1e-12 * (1.0 + abs(z_max))
    if np.any(z_arr < z_min - eps) or np.any(z_arr > z_max + eps):
        raise ValueError(f"z={z} outside slice bounds [{z_min}, {z_max}]")
    a1 = params.alpha_float[0]
    y = np.clip((z_arr - z_min) / a1, 0.0, 1.0)
    return psi_inverse(table, y)


def _x1_and_dpsi(z, x2_tilde: float, params: KstParams, table: PsiTable):
    """x1(z) on the slice and psi'(x1), which the change of variables divides by."""
    x1 = x1_of_z(z, x2_tilde, params, table)
    dpsi = psi_derivative(table, 1, x1)
    if np.any(np.asarray(dpsi) == 0.0):
        raise SingularJacobianError(f"psi' vanishes at x1={x1} (z={z}, x2~={x2_tilde})")
    return x1, dpsi


def jacobian_factor(z, x2_tilde: float, params: KstParams, table: PsiTable):
    """Change-of-variables factor dx1/dz = 1/(alpha_1 psi'(x1(z)))."""
    _, dpsi = _x1_and_dpsi(z, x2_tilde, params, table)
    return 1.0 / (params.alpha_float[0] * dpsi)


@dataclass(frozen=True)
class OdeCoefficients:
    """Coefficient functions c2 U'' + c1 U' + c0 U - g = 0 of a slice."""

    c2: Callable
    c1: Callable
    c0: Callable
    g: Callable


def ode_coefficients(slice_problem: SliceProblem) -> OdeCoefficients:
    """Assemble the four z-dependent coefficient functions of the slice ODE."""
    params, table = slice_problem.params, slice_problem.table
    x2t = slice_problem.x2_tilde
    a1, a2 = params.alpha_float[:2]
    # slice-constant psi data at the fixed coordinate
    p1_x2 = psi_derivative(table, 1, x2t)
    p2_x2 = psi_derivative(table, 2, x2t)
    rhs = slice_problem.rhs

    def c2(z):
        _, d1 = _x1_and_dpsi(z, x2t, params, table)
        return (a1**2 * d1**2 + a2**2 * p1_x2**2) / (a1 * d1)

    def c1(z):
        x1, d1 = _x1_and_dpsi(z, x2t, params, table)
        d2 = psi_derivative(table, 2, x1)
        return (a1**2 * d1**2 * d2 - a2**2 * p1_x2**2 * d2) / (a1**2 * d1**3)

    def c0(z):
        x1, d1 = _x1_and_dpsi(z, x2t, params, table)
        d2 = psi_derivative(table, 2, x1)
        d3 = psi_derivative(table, 3, x1)
        p0 = psi_eval(table, x1)
        num = a1 * a2 * d1**2 * d2 * p2_x2 + a2**2 * p1_x2**2 * (3.0 * d2 - p0 * d3)
        return num / (a1**3 * d1**5)

    def g(z):
        x1, d1 = _x1_and_dpsi(z, x2t, params, table)
        return rhs(x1, x2t) / (a1 * d1)

    return OdeCoefficients(c2=c2, c1=c1, c0=c0, g=g)


def first_order_system(coeffs: OdeCoefficients) -> Callable:
    """Right-hand side (U' , W') of the equivalent first-order system.

    W' = (g - c1 W - c0 U)/c2, exactly the slice ODE divided by c2.  The
    coefficients depend on z only, so the callable evaluates them once per
    mesh and reuses them while the same z values arrive again (Newton calls
    it many times on one mesh).
    """
    memo_z = None
    memo = None

    def rhs(z, U, W):
        nonlocal memo_z, memo
        if memo_z is None or not np.array_equal(memo_z, z):
            c2 = np.asarray(coeffs.c2(z), dtype=float)
            if np.any(c2 == 0.0):
                raise SingularJacobianError("c2 vanishes on the mesh; system is singular")
            memo = (coeffs.g(z), coeffs.c1(z), coeffs.c0(z), c2)
            memo_z = np.array(z, dtype=float)
        g, c1, c0, c2 = memo
        return W, (g - c1 * W - c0 * U) / c2

    return rhs


def _endpoint_bracket(x1_end: float, x2t: float, params: KstParams, table: PsiTable):
    a1, a2 = params.alpha_float[:2]
    d1 = psi_derivative(table, 1, x1_end)
    d2 = psi_derivative(table, 2, x1_end)
    p1_x2 = psi_derivative(table, 1, x2t)
    p2_x2 = psi_derivative(table, 2, x2t)
    return (
        (a2**2 * p1_x2**2 * d2 + a1 * a2 * d1**2 * p2_x2) / (a1**2 * d1**3)
        + a1 * d1
        + a2**2 * p1_x2**2 / (a1 * d1)
    )


def boundary_conditions(slice_problem: SliceProblem) -> tuple[float, float]:
    """The (left, right) endpoint brackets of a slice.

    The printed brackets multiply U at z_min/z_max; when nonzero they
    reduce to the Dirichlet-zero ends the BVP solver imposes.
    """
    params, table = slice_problem.params, slice_problem.table
    x2t = slice_problem.x2_tilde
    left = float(_endpoint_bracket(0.0, x2t, params, table))
    right = float(_endpoint_bracket(1.0, x2t, params, table))
    for name, val in (("left", left), ("right", right)):
        if abs(val) < 1e-12:
            raise DegenerateBoundaryError(
                f"{name} endpoint bracket is {val:g}; the boundary condition "
                "there is vacuous, not Dirichlet"
            )
    return left, right


def solve_slice(
    slice_problem: SliceProblem,
    n_nodes: int = 1001,
    tol: float = 1e-10,
    max_iter: int = 20,
) -> tuple[BvpSolution, BvpProblem]:
    """Build and solve the slice BVP; returns (solution, problem)."""
    z_min, z_max = slice_problem.bounds
    coeffs = ode_coefficients(slice_problem)
    boundary_conditions(slice_problem)  # raises DegenerateBoundaryError on a vacuous end
    problem = BvpProblem(
        z_min=z_min, z_max=z_max, rhs=first_order_system(coeffs), n_nodes=n_nodes
    )
    return newton_solve(problem, tol=tol, max_iter=max_iter), problem


def reduced_closed_form(
    slice_problem: SliceProblem, z_nodes: np.ndarray, refine: int = 8
) -> np.ndarray:
    """Reference solution by double integration of g/c2 with zero endpoints.

    Exact (up to quadrature) for slices whose c1 and c0 vanish, e.g. the
    identity inner table at depth 1.  Integration runs on a mesh refined
    by ``refine`` relative to z_nodes, then samples back.
    """
    z_min, z_max = slice_problem.bounds
    coeffs = ode_coefficients(slice_problem)
    fine = np.linspace(z_min, z_max, refine * (len(z_nodes) - 1) + 1)
    rhs = coeffs.g(fine) / coeffs.c2(fine)
    w = cumulative_trapezoid(rhs, fine, initial=0.0)
    u = cumulative_trapezoid(w, fine, initial=0.0)
    # enforce U(z_max) = 0 by subtracting the homogeneous linear mode
    u -= (fine - z_min) / (z_max - z_min) * u[-1]
    return np.interp(z_nodes, fine, u)


@dataclass(frozen=True)
class SliceReport:
    """Distances of a solved slice against its two references."""

    x2_tilde: float
    z_min: float
    z_max: float
    bracket_left: float
    bracket_right: float
    iterations: int
    converged: bool
    linf_vs_closed_form: float
    l2_vs_closed_form: float
    linf_vs_analytic: float
    l2_vs_analytic: float
    amplitude_ratio: float
    extremum_z_numeric: float
    extremum_z_analytic: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _l2(values: np.ndarray, z: np.ndarray) -> float:
    return float(np.sqrt(trapezoid(values**2, z)))


def compare_slice(solution: BvpSolution, slice_problem: SliceProblem) -> SliceReport:
    """L-inf/L2 distances of U against the analytic restriction and the
    closed form of the reduced ODE, plus the measured amplitude ratio."""
    z = solution.nodes
    params, table = slice_problem.params, slice_problem.table
    x2t = slice_problem.x2_tilde
    z_min, z_max = slice_problem.bounds
    bracket_left, bracket_right = boundary_conditions(slice_problem)

    u_closed = reduced_closed_form(slice_problem, z)
    x1 = x1_of_z(z, x2t, params, table)
    u_analytic = analytic_solution(x1, x2t)

    diff_closed = solution.U - u_closed
    diff_analytic = solution.U - u_analytic

    i_num = int(np.argmax(np.abs(solution.U)))
    i_an = int(np.argmax(np.abs(u_analytic)))
    amp_an = u_analytic[i_an]
    ratio = float(solution.U[i_num] / amp_an) if amp_an != 0.0 else math.nan

    return SliceReport(
        x2_tilde=x2t,
        z_min=z_min,
        z_max=z_max,
        bracket_left=bracket_left,
        bracket_right=bracket_right,
        iterations=solution.iterations,
        converged=solution.converged,
        linf_vs_closed_form=float(np.max(np.abs(diff_closed))),
        l2_vs_closed_form=_l2(diff_closed, z),
        linf_vs_analytic=float(np.max(np.abs(diff_analytic))),
        l2_vs_analytic=_l2(diff_analytic, z),
        amplitude_ratio=ratio,
        extremum_z_numeric=float(z[i_num]),
        extremum_z_analytic=float(z[i_an]),
    )


@dataclass(frozen=True)
class Field2D:
    """Uniform rectangular grid of u values."""

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray  # shape (len(x1), len(x2))

    def __post_init__(self):
        if self.values.shape != (len(self.x1), len(self.x2)):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({len(self.x1)}, {len(self.x2)})"
            )

    @classmethod
    def from_function(cls, fn, nx: int, ny: int) -> "Field2D":
        x1 = np.linspace(0.0, 1.0, nx)
        x2 = np.linspace(0.0, 1.0, ny)
        X1, X2 = np.meshgrid(x1, x2, indexing="ij")
        return cls(x1=x1, x2=x2, values=np.asarray(fn(X1, X2), dtype=float))


def reconstruct_field(
    solutions: dict[float, tuple[BvpSolution, SliceProblem]],
    x1_nodes: np.ndarray,
    x2_rows: np.ndarray,
) -> Field2D:
    """Assemble u(x1, x2) = U_{x2}(z(x1, x2)) from solved slices."""
    x1_nodes = np.asarray(x1_nodes, dtype=float)
    x2_rows = np.asarray(x2_rows, dtype=float)
    values = np.empty((len(x1_nodes), len(x2_rows)))
    for j, x2 in enumerate(x2_rows):
        if x2 not in solutions:
            raise KeyError(f"no solved slice for row x2={x2}")
        sol, sp = solutions[x2]
        table, params = sp.table, sp.params
        a1, a2 = params.alpha_float[:2]
        z = a1 * psi_eval(table, x1_nodes) + a2 * psi_eval(table, x2)
        values[:, j] = np.interp(z, sol.nodes, sol.U)
    return Field2D(x1=x1_nodes, x2=x2_rows, values=values)


def export_field_csv(field: Field2D, path) -> None:
    """Write x1,x2,u_numeric,u_analytic,abs_err rows in row-major order."""
    X1, X2 = np.meshgrid(field.x1, field.x2, indexing="ij")
    u_an = analytic_solution(X1, X2)
    columns = [X1, X2, field.values, u_an, np.abs(field.values - u_an)]
    write_csv(
        path,
        ["x1", "x2", "u_numeric", "u_analytic", "abs_err"],
        np.column_stack([c.ravel() for c in columns]),
    )
