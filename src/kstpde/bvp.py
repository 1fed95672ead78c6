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

from dataclasses import dataclass
from functools import cache
from itertools import groupby
from operator import itemgetter

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

CSV_BLOCK_ROWS = 1024  # rows formatted per _format_block call by write_csv
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


@dataclass
class BvpProblem:
    """Linear BVP c2 U'' + c1 U' = g with U = 0 at both ends, on the uniform
    mesh ``nodes``; g, c1 and c2 hold values at the nodes, or one constant."""

    nodes: np.ndarray
    g: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        n = len(nodes)
        if n < 3:
            raise ValueError(f"mesh must have at least 3 nodes, got {n}")
        # the solver reads one step, nodes[1] - nodes[0]; the rest may differ by rounding
        steps = np.diff(nodes)
        spread = 8.0 * np.finfo(float).eps * np.max(np.abs(nodes))
        if not (np.all(steps > 0.0) and np.ptp(steps) <= spread):
            raise ValueError("mesh nodes must increase in equal steps")
        self.nodes = nodes
        for name in ("g", "c1", "c2"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.ndim and values.shape != (n,):
                raise ValueError(f"{name} has {values.size} values for {n} nodes")
            setattr(self, name, np.broadcast_to(values, (n,)))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass
class BvpSolution:
    nodes: np.ndarray
    U: np.ndarray
    W: np.ndarray
    iterations: int
    residual_before: float = np.nan
    residual_after: float = np.nan
    converged: bool = False


def _residual(problem: BvpProblem, state: np.ndarray) -> np.ndarray:
    """Trapezoid collocation residual of the interleaved state (U0, W0, U1,
    W1, ...), its rows in the order of ``_collocation_band``."""
    h = problem.nodes[1] - problem.nodes[0]
    U, W = state[0::2], state[1::2]
    dW = (problem.g - problem.c1 * W) / problem.c2
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
    b = half * problem.c1 / problem.c2
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

    ``residual_before`` and ``residual_after`` are the residual's infinity
    norms at zero and at the returned state.  No step is taken
    (``iterations`` 0, the two equal) when the zero state already meets
    tol.  A finite residual left above tol is reported through
    ``converged=False``, not raised; a residual that is not finite, before
    or after the step, raises NonFiniteResidualError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number above 0, got {tol}")
    state = np.zeros(2 * problem.n_nodes)
    r = _finite_residual(problem, state, "before")
    before = after = float(np.max(np.abs(r)))
    stepped = before > tol
    if stepped:
        state = _solve_linear(_collocation_band(problem), -r)
        after = float(np.max(np.abs(_finite_residual(problem, state, "after"))))
    return BvpSolution(
        nodes=problem.nodes,
        U=state[0::2],
        W=state[1::2],
        iterations=int(stepped),
        residual_before=before,
        residual_after=after,
        converged=after <= tol,
    )


def ode_residual(solution: BvpSolution, problem: BvpProblem) -> float:
    """Infinity norm of the discrete residual, boundary rows included.  Only
    the node count is checked: a slice reports z nodes for its x1 mesh."""
    if solution.nodes.shape != (problem.n_nodes,):
        raise ValueError("solution mesh does not match problem mesh")
    state = np.column_stack([solution.U, solution.W]).ravel()
    return float(np.max(np.abs(_residual(problem, state))))


def export_solution_csv(tables, extra_names=()) -> None:
    """Write z,U,W rows, then the named extra columns, for each
    (path, solution, extra columns) table, all in one ``write_csv`` call."""
    write_csv(
        ((path, np.column_stack([sol.nodes, sol.U, sol.W, *extra])) for path, sol, extra in tables),
        ["z", "U", "W", *extra_names],
    )


def write_csv(tables, header: list[str]) -> None:
    """Write each (path, rows) table as the header line and its float rows
    as %.17g with CRLF line ends, the output of ``csv.writer`` on the
    formatted values.  Every table has one column per header name.

    The text comes from ``_format_block``, byte for byte what ``"%.17g" % v``
    gives.  Consecutive tables are formatted together, CSV_BLOCK_ROWS rows
    to a call, so many short tables cost a few calls, and a long one is
    written block by block.  ``tables`` may be an iterator: a table is read
    when its rows are due, so a generator holds few tables at a time.
    """
    head = (",".join(header) + "\r\n").encode()
    pieces = _formatted_pieces(tables, len(header))
    for (_, path), texts in groupby(pieces, key=itemgetter(0, 1)):
        with open(path, "wb") as fh:
            fh.write(head)
            for *_, text in texts:
                fh.write(text)


def _formatted_pieces(tables, ncols: int):
    """(table index, path, text) pieces of the tables' CSV rows, in order and
    at least one per table, from blocks of at most CSV_BLOCK_ROWS rows."""
    block, size = [], 0
    for i, (path, rows) in enumerate(tables):
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != ncols:
            raise ValueError(f"{path}: rows of shape {rows.shape} for {ncols} columns")
        start = 0
        while True:
            take = min(len(rows) - start, CSV_BLOCK_ROWS - size)
            block.append((i, path, rows[start : start + take]))
            start += take
            size += take
            if size == CSV_BLOCK_ROWS:
                yield from _cut_block(block, ncols)
                block, size = [], 0
            if start == len(rows):
                break
    if block:
        yield from _cut_block(block, ncols)


def _cut_block(block: list, ncols: int):
    """Format the block's rows in one ``_format_block`` call and cut the text
    at the row ends of each table's piece: every row ends in one "\\n"."""
    text = _format_block(np.concatenate([rows for *_, rows in block]).ravel(), ncols)
    cuts = [0, len(text)]
    if len(block) > 1:  # a single piece, as in a long table's blocks, needs no search
        counts = np.cumsum([0] + [len(rows) for *_, rows in block])
        row_ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n")) + 1
        cuts = np.concatenate([[0], row_ends])[counts].tolist()
    view = memoryview(text)
    for (i, path, _), start, stop in zip(block, cuts, cuts[1:]):
        yield i, path, view[start:stop]


# --------------------------------------------------------------------------
# the %.17g kernel.  %.17g writes a finite x in fixed notation when its
# decimal exponent e, taken after rounding to 17 significant digits, lies
# in [-4, 16].  Those 17 digits are the integer D = round(|x| 10**(16 - e)),
# rounded half to even, with 10**16 <= D < 10**17.  Here 16 - e <= 20, so
# 10**(16 - e) is an exact double, and Dekker's product gives |x| 10**(16 - e)
# as p + err exactly.  p >= 10**16 > 2**53 is then an even integer and
# |err| <= 8, so D = p + rint(err).  Every other value (0 < |x| < 1e-4,
# |x| >= 1e17, NaN, infinities) is formatted by "%.17g" itself.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_FIELD = 26  # bytes per value in the block layout: the longest %.17g text (24) and a separator


@cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The text of 0000..9999 as 4-byte words, and 10**s for s = 0..22 (every
    one an exact double) with its Veltkamp halves."""
    k = np.arange(10000, dtype=np.uint16)
    text = np.empty((10000, 4), np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        text[:, j] = k // place % 10 + ord("0")
    pow10 = np.array([float(10**s) for s in range(23)])
    c = _SPLIT * pow10
    high = c - (c - pow10)
    tables = text.view(np.uint32).ravel(), pow10, high, pow10 - high
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**s as p + err exactly: Dekker's product of a and the exact 10**s."""
    _, pow10, high, low = _format_tables()
    p = a * pow10[s]
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    bh, bl = high[s], low[s]
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _decade(p: np.ndarray, err: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as p + err lies below 10**16, in [10**16, 10**17) or above.
    Exact: wherever err could change a sign, p - 10**16 (or p - 10**17) is
    exact by Sterbenz's lemma."""
    above = (p - 1e17) + err >= 0
    below = (p - 1e16) + err < 0
    return above.view(np.int8) - below.view(np.int8)


def _exponent_and_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e (int8) and D (int64) of each value, and the indices of the values
    left to "%.17g", whose e and D are 0."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))  # the exponent, or one off near a power of ten
    fixed = ((e >= -5) & (e <= 16)) | (a == 0.0)
    a[~fixed] = 0.0  # zero, and every value left to "%.17g", runs through as 0
    e = np.where(a != 0.0, e, 0.0).astype(np.int8)
    p, err = _scaled(a, 16 - e)
    side = _decade(p, err)
    off = np.flatnonzero(side)
    off = off[a[off] != 0.0]
    if off.size:  # log10 was one off: redo those values one decade over
        e[off] += side[off]
        redo = off[(e[off] >= -5) & (e[off] <= 16)]
        p[redo], err[redo] = _scaled(a[redo], 16 - e[redo])
        fixed[off] = False
        fixed[redo] = _decade(p[redo], err[redo]) == 0
    D = p.astype(np.int64)
    D += np.rint(err).astype(np.int64)
    # D = 10**17 would mean the rounding carried into an 18th digit; no double
    # with e in [-4, 16] lies that close below a power of ten (see the tests)
    fixed &= (e >= -4) & (D < 10**17)
    fallback = np.flatnonzero(~fixed)
    D[fallback] = e[fallback] = 0
    return e, D, fallback


def _byte_mask(cond: np.ndarray) -> np.ndarray:
    """cond as bytes, 0xFF where True and 0 where False, in cond's memory."""
    mask = cond.view(np.uint8)
    np.negative(mask, out=mask)
    return mask


def _format_block(x: np.ndarray, ncols: int) -> bytes:
    """The CSV text of the flat values x, ncols to a line, each as "%.17g" % v.

    Temporaries are deleted once used, which keeps a block's peak memory
    near what formatting its values one by one takes.
    """
    e, D, fallback = _exponent_and_digits(x)
    n = x.size
    # one row per byte of text, one column per value: the sign, "0." and up
    # to three zeros when e < 0, 18 rows for the digits and the point, and
    # the separator.  Bytes left 0 are not text; joining the block drops them.
    grid = np.zeros((_FIELD, n), np.uint8)
    body = grid[6:24]
    # the 17 digits of D, its leading digit and then four 4-digit groups,
    # first each one row on, where a digit after the point goes
    digits = body[1:]
    lead = D // 10**16
    digits[0] = lead + ord("0")
    D -= lead * 10**16
    groups = np.empty((4, n), np.intp)
    for j, place in enumerate((10**12, 10**8, 10**4)):
        np.floor_divide(D, place, out=groups[j])
        D -= groups[j] * place
    groups[3] = D
    del D, lead
    text = _format_tables()[0].take(groups).view(np.uint8).reshape(4, n, 4)
    digits[1:].reshape(4, 4, n)[...] = text.transpose(0, 2, 1)
    del groups, text

    row = np.arange(18, dtype=np.int8)[:, None]
    last = _byte_mask(digits != ord("0"))
    last &= row[:17].view(np.uint8)
    significant = last.max(axis=0).view(np.int8) + np.int8(1)  # digits to the last non-zero
    del last
    small = e < 0
    before_point = np.where(small, np.int8(18), e + np.int8(1))  # 18: the point is in "0."
    point = (significant > before_point) & ~small  # digits follow the point
    size = np.maximum(significant, e + np.int8(1)) + point  # the body's bytes

    grid[0] = np.signbit(x) * np.uint8(ord("-"))
    grid[1] = small * np.uint8(ord("0"))
    grid[2] = small * np.uint8(ord("."))
    grid[3:6] = _byte_mask(row[1:4] >= e + np.int8(5)) & np.uint8(ord("0"))
    # digits before the point move back one row, the point goes after them,
    # and the body ends after the last significant digit
    step = body[:-1] ^ digits
    step &= _byte_mask(row[:17] < before_point)
    body[:-1] ^= step
    del step
    step = body ^ np.uint8(ord("."))
    step &= _byte_mask(row == before_point)
    body ^= step
    del step
    body &= _byte_mask(row < size)
    del body, digits
    grid[24] = ord(",")
    grid[24, ncols - 1 :: ncols] = ord("\r")
    grid[25, ncols - 1 :: ncols] = ord("\n")
    fields = grid.T.copy()
    del grid
    if fallback.size:
        text = b"".join([(b"%.17g" % v).ljust(24, b"\0") for v in x[fallback].tolist()])
        fields[fallback, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    data = fields.tobytes()
    del fields
    return data.translate(None, b"\0")
