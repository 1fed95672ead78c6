"""Reduction of the 2-D Poisson problem to one-dimensional slice BVPs.

At truncation order zero the superposition collapses to a single unknown
U(z) per fixed second coordinate.  Each slice carries the chain form of
the Poisson equation for u = U(z(x1, x2~)), solved for V(x1) = U(z) in x1: a
second-order linear ODE with psi-dependent coefficients and zero ends, whose
solution is reported on the aggregate variable z = alpha_1 psi(x1) + z_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .bvp import BvpProblem, BvpSolution, newton_solve, write_csv
from .inner import (
    KstParams,
    MonotonicityError,
    PsiTable,
    psi_eval,
    psi_inverse,
    psi_jet,
)

__all__ = [
    "SliceProblem",
    "Field2D",
    "SliceReport",
    "DegenerateBoundaryError",
    "default_source",
    "x1_of_z",
    "first_order_system",
    "boundary_conditions",
    "analytic_solution",
    "solve_slice",
    "reduced_closed_form",
    "compare_slice",
    "reconstruct_field",
    "export_field_csv",
    "trapezoid_panels",
]

CLOSED_FORM_REFINE = 8  # x1 intervals of reduced_closed_form per interval of its z_nodes


class DegenerateBoundaryError(RuntimeError):
    """An endpoint bracket coefficient is numerically zero; the condition
    at that endpoint is vacuous rather than Dirichlet."""


def default_source(x1, x2):
    """Right-hand side of the test problem: sin(pi x1) sin(pi x2)."""
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def analytic_solution(x1, x2):
    """Exact solution of the Poisson test problem with zero boundary data."""
    return np.sin(np.pi * x1) * np.sin(np.pi * x2) / (-2.0 * np.pi**2)


@dataclass(frozen=True)
class SliceProblem:
    """Reduced problem at fixed second coordinate.

    It owns the slice geometry: psi at x2~ is evaluated once, in
    ``jet_x2``, and ``bounds`` and everything downstream read it.
    """

    x2_tilde: float
    params: KstParams
    table: PsiTable
    rhs: Callable = default_source

    def __post_init__(self):
        if not 0.0 <= self.x2_tilde <= 1.0:
            raise ValueError(f"x2_tilde must lie in [0, 1], got {self.x2_tilde}")
        if self.params.n < 2:
            raise ValueError(
                f"n={self.params.n}: the slice reduction needs alpha_2, so n must be >= 2"
            )
        # x1_of_z inverts psi over the float64 view of the table, which loses
        # strict monotonicity once node increments drop below rounding
        flat = np.flatnonzero(~(np.diff(self.table.values) > 0.0))
        if flat.size:
            i = int(flat[0])
            nodes, values = self.table.nodes, self.table.values
            raise MonotonicityError(nodes[i], values[i], nodes[i + 1], values[i + 1])

    @cached_property
    def bounds(self) -> tuple[float, float]:
        """z-interval of the slice: [alpha_2 psi(x2~), alpha_1 + alpha_2 psi(x2~)]."""
        a1, a2 = self.params.alpha_float[:2]
        z_min = a2 * self.jet_x2[0]
        return z_min, a1 + z_min

    @cached_property
    def brackets(self) -> tuple[float, float]:
        """boundary_conditions of this slice, computed once."""
        return boundary_conditions(self)

    @cached_property
    def jet_x2(self) -> list[float]:
        """psi, psi' and psi'' at x2~, constant along the slice."""
        return psi_jet(self.table, self.x2_tilde)


def x1_of_z(z, slice_problem: SliceProblem):
    """Invert the aggregate variable on a slice: x1 = psi^-1((z - z_min)/alpha_1)."""
    z_min, z_max = slice_problem.bounds
    z_arr = np.asarray(z, dtype=float)
    eps = 1e-12 * (1.0 + abs(z_max))
    if np.any(z_arr < z_min - eps) or np.any(z_arr > z_max + eps):
        raise ValueError(f"z={z} outside slice bounds [{z_min}, {z_max}]")
    y = np.clip((z_arr - z_min) / slice_problem.params.alpha_float[0], 0.0, 1.0)
    return psi_inverse(slice_problem.table, y)


def _x1_jet(z, slice_problem: SliceProblem):
    """x1(z) on the slice and psi_jet at x1.  The change of variables
    divides by psi'(x1), which the exact slopes keep positive."""
    x1 = x1_of_z(z, slice_problem)
    return x1, psi_jet(slice_problem.table, x1)


def _x1_mesh(n_nodes: int) -> np.ndarray:
    """The uniform x1 nodes of [0, 1] that a slice of n_nodes is solved on."""
    return np.linspace(0.0, 1.0, n_nodes)


def _coefficients(slice_problem: SliceProblem, x1, jet) -> tuple:
    """(g, c1, c2) at x1 from jet = psi_jet(table, x1); psi(x1) is not read."""
    a1, a2 = slice_problem.params.alpha_float[:2]
    _, p1_x2, p2_x2 = slice_problem.jet_x2
    _, d1, d2 = jet
    q, dq = a1 * d1, a1 * d2
    r = (a2 * p1_x2 / q) ** 2  # S^2/q^2
    g = slice_problem.rhs(x1, slice_problem.x2_tilde)
    return g, (a2 * p2_x2 - r * dq) / q, 1.0 + r


def first_order_system(slice_problem: SliceProblem) -> Callable:
    """The callable x1 -> (g, c1, c2) of the slice ODE c2 V'' + c1 V' = g for
    V(x1) = U(z(x1, x2~)), evaluated once on the mesh with one psi_jet.

    The chain form Delta(U(z)) = f, rewritten by V' = q U' and V'' = q^2 U''
    + q' U' with q = alpha_1 psi'(x1), S = alpha_2 psi'(x2~) and T = alpha_2
    psi''(x2~), gives g = f, c1 = T/q - S^2 q'/q^3 and c2 = 1 + S^2/q^2 >= 1.
    """

    def coefficients(x1):
        return _coefficients(slice_problem, x1, psi_jet(slice_problem.table, x1))

    return coefficients


def boundary_conditions(slice_problem: SliceProblem) -> tuple[float, float]:
    """The (left, right) endpoint brackets of a slice, at x1 = 0 and 1.

    They multiply U at z_min/z_max in the first reading of the paper's
    printed end conditions; the chain form does not use them, but a
    vanishing one is still rejected.
    """
    a1, a2 = slice_problem.params.alpha_float[:2]
    _, p1_x2, p2_x2 = slice_problem.jet_x2
    _, d1, d2 = psi_jet(slice_problem.table, np.array([0.0, 1.0]))
    left, right = (
        (a2**2 * p1_x2**2 * d2 + a1 * a2 * d1**2 * p2_x2) / (a1**2 * d1**3)
        + a1 * d1
        + a2**2 * p1_x2**2 / (a1 * d1)
    ).tolist()
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
) -> tuple[BvpSolution, BvpProblem]:
    """Build and solve the slice BVP on the x1 mesh of n_nodes; returns
    (solution, problem).  The solution's nodes are z = alpha_1 psi(x1) +
    z_min, its W is dV/dx1."""
    slice_problem.brackets  # raises DegenerateBoundaryError on a vacuous end
    x1 = _x1_mesh(n_nodes)
    g, c1, c2 = first_order_system(slice_problem)(x1)
    problem = BvpProblem(x1, g, c1, c2)
    a1 = slice_problem.params.alpha_float[0]
    z = a1 * psi_eval(slice_problem.table, x1) + slice_problem.bounds[0]
    return replace(newton_solve(problem, tol=tol), nodes=z), problem


def trapezoid_panels(y: np.ndarray, step) -> np.ndarray:
    """Trapezoid-rule areas step * (y[i+1] + y[i]) / 2 along the last axis of
    y, for a scalar step or an array of steps.

    The operations and their order are those of scipy.integrate.trapezoid
    and cumulative_trapezoid, so ``np.sum`` and ``np.cumsum`` of the panels
    reproduce those rules bit for bit.
    """
    return step * (y[..., 1:] + y[..., :-1]) / 2.0


def reduced_closed_form(slice_problem: SliceProblem, z_nodes: np.ndarray) -> np.ndarray:
    """Reference solution by double integration of g/c2 with zero endpoints.

    That solves c2 V'' = g, the slice ODE only where c1 = 0, i.e. at depth
    1; at k >= 2 it is another equation.  The exact quadrature, with weight
    exp(int c1/c2), waits for an x1 mesh aligned with the psi cells and
    coefficients taken per cell.  Integration runs in x1 on a mesh refined
    by CLOSED_FORM_REFINE relative to z_nodes, sampled back through its z.
    """
    x1 = _x1_mesh(CLOSED_FORM_REFINE * (len(z_nodes) - 1) + 1)
    jet = psi_jet(slice_problem.table, x1)
    g, _, c2 = _coefficients(slice_problem, x1, jet)
    steps = np.diff(x1)
    w = np.concatenate(([0.0], np.cumsum(trapezoid_panels(g / c2, steps))))
    v = np.concatenate(([0.0], np.cumsum(trapezoid_panels(w, steps))))
    # enforce V(1) = 0 by subtracting the homogeneous linear mode
    v -= x1 * v[-1]
    z = slice_problem.params.alpha_float[0] * jet[0] + slice_problem.bounds[0]
    return np.interp(z_nodes, z, v)


@dataclass(frozen=True)
class SliceReport:
    """The record of a solved slice: its solve, its collocation residual at
    zero and where the solve left it, and its distances against two references.

    ``u_analytic`` is the analytic restriction u(x1, x2~) on the x1 mesh;
    ``to_dict``, the slice and compare JSON, leaves it out.
    ``amplitude_ratio`` is NaN where either extremum is exactly zero.
    """

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
    residual_before: float
    residual_inf: float
    u_analytic: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__ if k != "u_analytic"}


def _l2(values: np.ndarray, z: np.ndarray) -> float:
    return float(np.sqrt(np.sum(trapezoid_panels(values**2, np.diff(z)))))


def compare_slice(solution: BvpSolution, slice_problem: SliceProblem) -> SliceReport:
    """The slice's record: L-inf/L2 distances of U against the analytic
    restriction and the closed form, the amplitude ratio and the residuals."""
    z = solution.nodes
    x2t = slice_problem.x2_tilde
    z_min, z_max = slice_problem.bounds
    bracket_left, bracket_right = slice_problem.brackets

    u_closed = reduced_closed_form(slice_problem, z)
    u_analytic = analytic_solution(_x1_mesh(len(z)), x2t)

    diff_closed = solution.U - u_closed
    diff_analytic = solution.U - u_analytic

    i_num = int(np.argmax(np.abs(solution.U)))
    i_an = int(np.argmax(np.abs(u_analytic)))
    amp_num, amp_an = solution.U[i_num], u_analytic[i_an]
    ratio = float(amp_num / amp_an) if amp_num != 0.0 and amp_an != 0.0 else math.nan

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
        residual_before=solution.residual_before,
        residual_inf=solution.residual_after,
        u_analytic=u_analytic,
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
    solutions: dict[float, BvpSolution],
    x1_nodes: np.ndarray,
    x2_rows: np.ndarray,
) -> Field2D:
    """Assemble u(x1, x2) = V_{x2}(x1) from solved slices: each row is
    interpolated at x1_nodes on its own slice's x1 mesh."""
    x1_nodes = np.asarray(x1_nodes, dtype=float)
    x2_rows = np.asarray(x2_rows, dtype=float)
    values = np.empty((len(x1_nodes), len(x2_rows)))
    for j, x2 in enumerate(x2_rows):
        if x2 not in solutions:
            raise KeyError(f"no solved slice for row x2={x2}")
        sol = solutions[x2]
        values[:, j] = np.interp(x1_nodes, _x1_mesh(len(sol.U)), sol.U)
    return Field2D(x1=x1_nodes, x2=x2_rows, values=values)


def export_field_csv(field: Field2D, path) -> None:
    """Write x1,x2,u_numeric,u_analytic,abs_err rows in row-major order."""
    X1, X2 = np.meshgrid(field.x1, field.x2, indexing="ij")
    u_an = analytic_solution(X1, X2)
    columns = [X1, X2, field.values, u_an, np.abs(field.values - u_an)]
    write_csv(
        [(path, np.column_stack([c.ravel() for c in columns]))],
        ["x1", "x2", "u_numeric", "u_analytic", "abs_err"],
    )
