"""Two-point boundary value solver for linear slice equations.

c2 U'' + c1 U' = g with U = 0 at both ends, written as U' = W,
W' = (g - c1 W)/c2 and discretised by trapezoidal collocation on a
uniform mesh.  The discrete system is linear, so one exact Newton step
from zero solves it.  A row couples nodes i and i+1 only, so with the
unknowns interleaved as (U0, W0, U1, W1, ...) the collocation matrix is
banded with one sub- and two super-diagonals: it is assembled from the
coefficients straight into LAPACK band storage and factored once with
dgbtrf, whose pivots are checked for singularity.  scipy.linalg is
imported at the first factorisation, so importing this module loads
numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "BvpProblem",
    "BvpSolution",
    "NonFiniteResidualError",
    "SingularMatrixError",
    "newton_solve",
    "ode_residual",
    "export_solution_csv",
    "write_csv",
]

CSV_BLOCK_ROWS = 1024  # rows formatted per write by write_csv
KL, KU = 1, 2  # sub- and super-diagonals of the interleaved collocation matrix


class SingularMatrixError(RuntimeError):
    """Collocation matrix is numerically singular at a pivot of its LU factor."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"singular Newton matrix: pivot {pivot_index} has magnitude {pivot_value:g}"
        )


class NonFiniteResidualError(RuntimeError):
    """Collocation residual holds a NaN or an infinity, before or after the step."""

    def __init__(self, row: int, value: float, stage: str):
        self.row = row
        self.value = value
        super().__init__(
            f"collocation residual not finite {stage} the step: row {row} is {value:g}"
        )


@dataclass(frozen=True)
class BvpProblem:
    """Linear BVP c2 U'' + c1 U' = g with U = 0 at both ends, on N uniform
    nodes of [z_min, z_max]; ``coefficients(z)`` returns (g, c1, c2)."""

    z_min: float
    z_max: float
    coefficients: Callable
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError(f"mesh must have at least 3 nodes, got {self.n_nodes}")
        if not self.z_min < self.z_max:
            raise ValueError(f"need z_min < z_max, got [{self.z_min}, {self.z_max}]")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_nodes)

    @cached_property
    def mesh_coefficients(self) -> tuple[np.ndarray, ...]:
        """``coefficients`` evaluated once, on the nodes, as arrays of length N."""
        n, values = self.n_nodes, self.coefficients(self.nodes)
        return tuple(np.broadcast_to(np.asarray(c, dtype=float), (n,)) for c in values)


@dataclass
class BvpSolution:
    nodes: np.ndarray
    U: np.ndarray
    W: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False


def _residual(problem: BvpProblem, state: np.ndarray) -> np.ndarray:
    """Trapezoid collocation residual of the interleaved state (U0, W0, U1,
    W1, ...), its rows in the order of ``_collocation_band``."""
    h = problem.nodes[1] - problem.nodes[0]
    g, c1, c2 = problem.mesh_coefficients
    U, W = state[0::2], state[1::2]
    dW = (g - c1 * W) / c2
    r = np.empty_like(state)
    r[0] = U[0]
    r[1:-1:2] = U[1:] - U[:-1] - 0.5 * h * (W[1:] + W[:-1])
    r[2:-1:2] = W[1:] - W[:-1] - 0.5 * h * (dW[1:] + dW[:-1])
    r[-1] = U[-1]
    return r


def _collocation_band(problem: BvpProblem) -> np.ndarray:
    """The Jacobian of ``_residual``, exact and independent of the state, in
    LAPACK band storage: entry (r, c) sits at [KL + KU + r - c, c], so band
    row 3 holds the diagonal and row 3 - o the diagonal at offset c - r = o.

    Columns are the interleaved unknowns (U0, W0, U1, W1, ...); rows run:
    the left boundary, then the U row and the W row of each interval, then
    the right boundary.  The first KL rows are dgbtrf's room for fill-in.
    """
    n = problem.n_nodes
    half = 0.5 * (problem.nodes[1] - problem.nodes[0])
    _, c1, c2 = problem.mesh_coefficients
    b = half * c1 / c2
    band = np.zeros((2 * KL + KU + 1, 2 * n), order="F")
    # the boundary rows: 1 on their end U
    band[3, 0] = band[4, -2] = 1.0
    # interval i's U row 2i+1: -1, +1 on U_i, U_i+1 and -h/2, -h/2 on W_i, W_i+1
    band[4, :-2:2], band[2, 2::2] = -1.0, 1.0
    band[3, 1:-1:2] = band[1, 3::2] = -half
    # its W row 2i+2: -1 + (h/2) c1/c2, +1 + (h/2) c1/c2 on W_i, W_i+1
    band[4, 1:-1:2], band[2, 3::2] = b[:-1] - 1.0, b[1:] + 1.0
    return band


def _solve_linear(band: np.ndarray, rhs_vec: np.ndarray) -> np.ndarray:
    """Solve the banded system (KL sub-, KU super-diagonals) by LU with
    partial pivoting; ``band`` is overwritten by its factor.

    Raises SingularMatrixError when dgbtrf meets an exactly zero pivot, when
    a diagonal entry of the factor's U is NaN, or when the smallest |U|
    diagonal entry falls below 1e3 * tiny * max(1, largest).  The reported
    pivot index counts in the factor's row-permuted order, not in the order
    of the unknowns.
    """
    from scipy.linalg.lapack import dgbtrf, dgbtrs

    lu, piv, info = dgbtrf(band, KL, KU, overwrite_ab=True)
    if info > 0:
        raise SingularMatrixError(info - 1, 0.0)
    diag = np.abs(lu[KL + KU])
    worst = int(np.argmin(diag))  # the first NaN, if there is one
    # "not >=" so that a NaN pivot fails the test
    if not diag[worst] >= 1e3 * np.finfo(float).tiny * max(1.0, diag.max()):
        raise SingularMatrixError(worst, float(diag[worst]))
    x, _ = dgbtrs(lu, KL, KU, rhs_vec, piv, overwrite_b=True)
    return x


def _finite_residual(problem: BvpProblem, state: np.ndarray, stage: str) -> np.ndarray:
    """``_residual``, or NonFiniteResidualError naming its first non-finite row."""
    r = _residual(problem, state)
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        raise NonFiniteResidualError(int(bad[0]), float(r[bad[0]]), stage)
    return r


def newton_solve(problem: BvpProblem, tol: float = 1e-10) -> BvpSolution:
    """Solve the collocation system by one exact Newton step from zero.

    No step is taken (``iterations`` 0) when the zero state already meets
    tol.  A finite residual left above tol is reported through
    ``converged=False``, not raised; a residual that is not finite, before
    or after the step, raises NonFiniteResidualError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number above 0, got {tol}")
    state = np.zeros(2 * problem.n_nodes)
    r = _finite_residual(problem, state, "before")
    history = [float(np.max(np.abs(r)))]
    if history[0] > tol:
        state = _solve_linear(_collocation_band(problem), -r)
        history.append(float(np.max(np.abs(_finite_residual(problem, state, "after")))))
    return BvpSolution(
        nodes=problem.nodes,
        U=state[0::2],
        W=state[1::2],
        iterations=len(history) - 1,
        residual_history=history,
        converged=history[-1] <= tol,
    )


def ode_residual(solution: BvpSolution, problem: BvpProblem) -> float:
    """Infinity norm of the discrete residual, boundary rows included."""
    if solution.nodes.shape != (problem.n_nodes,) or not np.allclose(
        solution.nodes, problem.nodes
    ):
        raise ValueError("solution mesh does not match problem mesh")
    state = np.column_stack([solution.U, solution.W]).ravel()
    return float(np.max(np.abs(_residual(problem, state))))


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
