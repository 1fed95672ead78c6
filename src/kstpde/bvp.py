"""Two-point boundary value solver for first-order systems (U' = W, W' = rhs).

Trapezoidal collocation on a uniform mesh, Newton-Raphson on the stacked
residual with a forward-difference Jacobian.  The Jacobian is assembled
with three-colour perturbations per component, which is exact for the
two-node coupling stencil of the trapezoidal scheme.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "SingularMatrixError",
    "newton_solve",
    "ode_residual",
    "export_solution_csv",
]

JAC_STEP = 1e-7  # forward-difference step factor, scaled by 1 + |state|


class SingularMatrixError(RuntimeError):
    """Newton matrix is numerically singular."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"singular Newton matrix: pivot {pivot_index} has magnitude {pivot_value:g}"
        )


@dataclass(frozen=True)
class BvpProblem:
    """First-order two-point BVP on [z_min, z_max] with N uniform nodes.

    ``rhs(z, U, W)`` returns (U', W') and must accept numpy arrays.  Both
    ends carry the Dirichlet-zero condition U = 0.
    """

    z_min: float
    z_max: float
    rhs: Callable
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError(f"mesh must have at least 3 nodes, got {self.n_nodes}")
        if not self.z_min < self.z_max:
            raise ValueError(f"need z_min < z_max, got [{self.z_min}, {self.z_max}]")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_nodes)


@dataclass
class BvpSolution:
    nodes: np.ndarray
    U: np.ndarray
    W: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _residual(problem: BvpProblem, z: np.ndarray, state: np.ndarray) -> np.ndarray:
    n = problem.n_nodes
    h = z[1] - z[0]
    U, W = state[:n], state[n:]
    fU, fW = problem.rhs(z, U, W)
    fU = np.broadcast_to(np.asarray(fU, dtype=float), (n,))
    fW = np.broadcast_to(np.asarray(fW, dtype=float), (n,))
    r = np.empty(2 * n)
    r[0] = U[0]
    r[1:n] = U[1:] - U[:-1] - 0.5 * h * (fU[1:] + fU[:-1])
    r[n : 2 * n - 1] = W[1:] - W[:-1] - 0.5 * h * (fW[1:] + fW[:-1])
    r[2 * n - 1] = U[-1]
    return r


def _fd_jacobian(problem: BvpProblem, z: np.ndarray, state: np.ndarray,
                 r0: np.ndarray) -> np.ndarray:
    """Dense Jacobian by coloured forward differences.

    A residual row touches nodes i and i+1 only, so nodes three apart can
    be perturbed simultaneously without overlap.
    """
    n = problem.n_nodes
    jac = np.zeros((2 * n, 2 * n))
    for comp in range(2):
        for colour in range(3):
            nodes_pert = np.arange(colour, n, 3)
            cols = nodes_pert + comp * n
            eps = JAC_STEP * (1.0 + np.abs(state[cols]))
            pert = state.copy()
            pert[cols] += eps
            dr = _residual(problem, z, pert) - r0
            for j, e in zip(nodes_pert, eps):
                rows = []
                if j == 0:
                    rows.append(0)
                if j == n - 1:
                    rows.append(2 * n - 1)
                for interval in (j - 1, j):
                    if 0 <= interval < n - 1:
                        rows.append(1 + interval)
                        rows.append(n + interval)
                col = j + comp * n
                for row in rows:
                    jac[row, col] = dr[row] / e
    return jac


def _solve_linear(jac: np.ndarray, rhs_vec: np.ndarray) -> np.ndarray:
    import scipy.linalg

    lu, piv = scipy.linalg.lu_factor(jac, check_finite=False)
    diag = np.abs(np.diag(lu))
    worst = int(np.argmin(diag))
    if diag[worst] < 1e3 * np.finfo(float).tiny * max(1.0, diag.max()):
        raise SingularMatrixError(worst, float(diag[worst]))
    return scipy.linalg.lu_solve((lu, piv), rhs_vec, check_finite=False)


def newton_solve(
    problem: BvpProblem,
    tol: float = 1e-10,
    max_iter: int = 20,
    initial_guess: Optional[np.ndarray] = None,
) -> BvpSolution:
    """Drive the collocation residual below tol in the infinity norm.

    Full Newton steps with a half-step fallback on residual increase.
    Non-convergence is reported through ``converged=False``, not raised.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    z = problem.nodes
    n = problem.n_nodes
    state = np.zeros(2 * n) if initial_guess is None else np.asarray(
        initial_guess, dtype=float
    ).copy()
    if state.shape != (2 * n,):
        raise ValueError(f"initial guess must have shape ({2 * n},)")

    history = []
    r = _residual(problem, z, state)
    rnorm = float(np.max(np.abs(r)))
    history.append(rnorm)
    iterations = 0
    converged = rnorm <= tol
    while not converged and iterations < max_iter:
        jac = _fd_jacobian(problem, z, state, r)
        step = _solve_linear(jac, -r)
        scale = 1.0
        for _ in range(30):
            trial = state + scale * step
            r_trial = _residual(problem, z, trial)
            r_trial_norm = float(np.max(np.abs(r_trial)))
            if r_trial_norm < rnorm or scale < 2**-29:
                break
            scale *= 0.5
        state, r, rnorm = trial, r_trial, r_trial_norm
        iterations += 1
        history.append(rnorm)
        converged = rnorm <= tol
    return BvpSolution(
        nodes=z,
        U=state[:n],
        W=state[n:],
        iterations=iterations,
        residual_history=history,
        converged=converged,
    )


def ode_residual(solution: BvpSolution, problem: BvpProblem) -> float:
    """Infinity norm of the discrete residual, boundary rows included."""
    if solution.nodes.shape != (problem.n_nodes,) or not np.allclose(
        solution.nodes, problem.nodes
    ):
        raise ValueError("solution mesh does not match problem mesh")
    state = np.concatenate([solution.U, solution.W])
    return float(np.max(np.abs(_residual(problem, problem.nodes, state))))


def export_solution_csv(solution: BvpSolution, path, extra_cols=None) -> None:
    """Write z,U,W rows (plus optional named extra columns)."""
    header = ["z", "U", "W"]
    columns = [solution.nodes, solution.U, solution.W]
    if extra_cols:
        for name, col in extra_cols.items():
            header.append(name)
            columns.append(np.asarray(col))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow(["%.17g" % v for v in row])
