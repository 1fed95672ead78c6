"""Two-point boundary value solver for first-order systems (U' = W, W' = rhs).

Trapezoidal collocation on a uniform mesh, Newton-Raphson on the stacked
residual.  A residual row couples nodes i and i+1 only, so the Newton
matrix is sparse with 8N - 4 entries for N nodes:

- the Jacobian comes from forward differences with three colours per
  component (nodes three apart share one perturbation), which is exact
  for the two-node stencil, and is assembled straight into CSC format;
- each Newton step factors it with SuperLU (``scipy.sparse.linalg.splu``),
  so one iteration costs O(N);
- a pivot diagnostic on the sparse factor raises ``SingularMatrixError``
  on an exactly zero or vanishingly small pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "SingularMatrixError",
    "newton_solve",
    "ode_residual",
    "export_solution_csv",
    "write_csv",
]

JAC_STEP = 1e-7  # forward-difference step factor, scaled by 1 + |state|
CSV_BLOCK_ROWS = 1024  # rows formatted per write by write_csv


class SingularMatrixError(RuntimeError):
    """Newton matrix is numerically singular.

    ``pivot_index`` is None when the factorization stopped at an exactly
    zero pivot without reporting where.
    """

    def __init__(self, pivot_index: Optional[int], pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        where = "a pivot" if pivot_index is None else f"pivot {pivot_index}"
        super().__init__(
            f"singular Newton matrix: {where} has magnitude {pivot_value:g}"
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
                 r0: np.ndarray) -> csc_array:
    """Sparse Jacobian by coloured forward differences, in CSC format.

    A residual row touches nodes i and i+1 only, so nodes three apart can
    be perturbed simultaneously without overlap: six residual evaluations
    give every entry.  Entry (row, col) is dr[row] / eps[col], with dr from
    the colour that perturbed the node of col.
    """
    n = problem.n_nodes
    eps = JAC_STEP * (1.0 + np.abs(state))
    dr = np.empty((2, 3, 2 * n))
    for comp in range(2):
        for colour in range(3):
            cols = np.arange(colour, n, 3) + comp * n
            pert = state.copy()
            pert[cols] += eps[cols]
            dr[comp, colour] = _residual(problem, z, pert) - r0
    # (row, node) pairs of the stencil: interval i's U and W rows touch
    # nodes i and i+1; the two boundary rows touch their end node
    i = np.arange(n - 1)
    node = np.concatenate([i, i + 1, i, i + 1, [0, n - 1]])
    row = np.concatenate([1 + i, 1 + i, n + i, n + i, [0, 2 * n - 1]])
    # every pair carries one entry per component
    comp = np.repeat([0, 1], len(node))
    node, row = np.tile(node, 2), np.tile(row, 2)
    col = node + comp * n
    values = dr[comp, node % 3, row] / eps[col]
    return csc_array((values, (row, col)), shape=(2 * n, 2 * n))


def _solve_linear(jac: csc_array, rhs_vec: np.ndarray) -> np.ndarray:
    """Solve ``jac @ x = rhs_vec`` by sparse LU.

    Raises SingularMatrixError when SuperLU meets an exactly zero pivot, or
    when the smallest |U| diagonal entry of the factor falls below
    1e3 * tiny * max(1, largest).  The reported pivot index counts in the
    factor's row and column permuted order, not in the order of the
    unknowns.
    """
    try:
        lu = splu(jac)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        raise SingularMatrixError(None, 0.0) from exc
    diag = np.abs(lu.U.diagonal())
    worst = int(np.argmin(diag))
    if diag[worst] < 1e3 * np.finfo(float).tiny * max(1.0, diag.max()):
        raise SingularMatrixError(worst, float(diag[worst]))
    return lu.solve(rhs_vec)


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
    write_csv(path, header, np.column_stack(columns))


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    """Write a header line and the float rows as %.17g with CRLF line ends,
    the output of ``csv.writer`` on the formatted values."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        # one formatting operation per block of rows: the temporary strings
        # and float objects stay small however long the table is
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start : start + CSV_BLOCK_ROWS]
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))
