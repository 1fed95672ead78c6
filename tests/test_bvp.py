"""Collocation solver on problems with known closed forms."""

import csv
import io
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstpde import bvp
from kstpde.bvp import (
    KL,
    KU,
    BvpProblem,
    BvpSolution,
    NonFiniteResidualError,
    SingularMatrixError,
    _collocation_band,
    _residual,
    _solve_linear,
    export_solution_csv,
    newton_solve,
    ode_residual,
)
from kstpde.reduction import SliceProblem, first_order_system


def to_band(dense):
    """LAPACK band storage of a dense matrix with KL sub- and KU super-diagonals."""
    n = len(dense)
    band = np.zeros((2 * KL + KU + 1, n), order="F")
    for r, c in zip(*np.nonzero(dense)):
        band[KL + KU + r - c, c] = dense[r, c]
    return band


def to_dense(band):
    """The matrix that LAPACK band storage holds (its fill-in rows ignored)."""
    n = band.shape[1]
    dense = np.zeros((n, n))
    for r in range(n):
        for c in range(max(0, r - KL), min(n, r + KU + 1)):
            dense[r, c] = band[KL + KU + r - c, c]
    return dense


def make_problem(g, n_nodes, c1=0.0):
    """U'' + c1 U' = g(z) with zero ends on n_nodes uniform nodes of [0, 1],
    as (g, c1, c2) = (g, c1, 1)."""
    z = np.linspace(0.0, 1.0, n_nodes)
    return BvpProblem(z, g(z), c1, 1.0)


BETA = 0.5


def drifted_quadratic_source(z):
    """g of U'' + BETA U' = g for U = z(z - 1).  W = U' is linear and
    W' = g - BETA W = 2 is constant, so trapezoidal collocation returns U
    exactly up to rounding."""
    return 2.0 + BETA * (2.0 * z - 1.0)


class TestNewtonSolve:
    def test_homogeneous_stays_zero(self):
        problem = make_problem(np.zeros_like, 51)
        sol = newton_solve(problem)
        assert sol.converged
        assert sol.iterations == 0
        assert sol.residual_before == sol.residual_after == 0.0
        assert np.max(np.abs(sol.U)) == 0.0

    def test_constant_forcing_quadratic(self):
        # U'' = 2 with zero ends has the exact solution U = z(z-1), which
        # trapezoidal collocation reproduces exactly up to rounding
        problem = make_problem(lambda z: 2.0 * np.ones_like(z), 1001)
        sol = newton_solve(problem)
        z = sol.nodes
        assert sol.converged
        assert np.max(np.abs(sol.U - z * (z - 1.0))) <= 1e-8

    def test_linear_problem_single_iteration(self):
        # the residual is linear, so one exact Newton step from zero meets
        # tol; a second step from the answer would not move it
        problem = make_problem(drifted_quadratic_source, 201, c1=BETA)
        sol = newton_solve(problem)
        assert sol.converged and sol.iterations == 1
        assert np.max(np.abs(sol.U - sol.nodes * (sol.nodes - 1.0))) <= 1e-14
        zero_state = np.zeros(2 * problem.n_nodes)
        assert sol.residual_before == np.max(np.abs(_residual(problem, zero_state))) > 1e-10
        assert sol.residual_after == ode_residual(sol, problem) <= 1e-10
        state = np.column_stack([sol.U, sol.W]).ravel()
        step = _solve_linear(_collocation_band(problem), -_residual(problem, state))
        assert np.max(np.abs(step)) <= 1e-10 * (1.0 + np.max(np.abs(sol.U)))

    def test_linear_problem_at_1e5_nodes(self):
        # the banded Newton core keeps a 200,002-unknown slice to one step
        problem = make_problem(drifted_quadratic_source, 100_001, c1=BETA)
        sol = newton_solve(problem)
        assert sol.converged and sol.iterations == 1
        assert np.max(np.abs(sol.U - sol.nodes * (sol.nodes - 1.0))) <= 1e-11

    def test_second_order_mesh_convergence(self):
        # U'' = -pi^2 sin(pi z): trapezoidal error should drop ~4x per halving
        def run(n):
            problem = make_problem(lambda z: -np.pi**2 * np.sin(np.pi * z), n)
            sol = newton_solve(problem)
            return np.max(np.abs(sol.U - np.sin(np.pi * sol.nodes)))

        e_coarse, e_fine = run(101), run(201)
        assert 3.0 <= e_coarse / e_fine <= 5.0

    def test_discrete_residual_reported(self):
        problem = make_problem(np.cos, 101)
        sol = newton_solve(problem, tol=1e-10)
        assert ode_residual(sol, problem) <= 1e-10

    def test_residual_detects_perturbation(self):
        problem = make_problem(np.cos, 101)
        sol = newton_solve(problem)
        h = problem.nodes[1] - problem.nodes[0]
        bumped = BvpSolution(
            nodes=sol.nodes,
            U=sol.U + np.where(np.arange(len(sol.U)) == 50, 1e-6, 0.0),
            W=sol.W.copy(),
            iterations=sol.iterations,
        )
        # a point bump of size eps shows up in the difference rows as ~eps
        assert ode_residual(bumped, problem) >= 0.5e-6
        assert ode_residual(bumped, problem) <= 1e-6 / h

    def test_nonconvergence_flag_not_exception(self):
        # a tolerance below the rounding floor cannot be met: the solver
        # reports that rather than raising
        problem = make_problem(np.cos, 51)
        sol = newton_solve(problem, tol=1e-300)
        assert not sol.converged
        assert sol.iterations == 1
        assert 1e-300 < sol.residual_after < sol.residual_before


class TestNonFiniteResidual:
    """A NaN or an infinity in the residual is a typed failure.  Reported
    as a residual it would read converged=False with no step taken, because
    nan > tol is false."""

    @pytest.mark.parametrize(
        "name, bad",
        [("g", np.nan), ("g", np.inf), ("c1", np.nan), ("c1", -np.inf),
         ("c1", np.inf), ("c2", np.nan), ("c2", 0.0)],
    )
    def test_coefficient_fails_before_the_step(self, name, bad):
        z = np.linspace(0.0, 1.0, 21)
        c = {"g": np.cos(z), "c1": np.zeros_like(z), "c2": np.ones_like(z)}
        c[name][7] = bad
        problem = BvpProblem(z, c["g"], c["c1"], c["c2"])
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResidualError) as exc:
            newton_solve(problem)
        # node 7 enters the W rows 2i+2 of intervals i = 6 and 7; 14 comes first
        assert exc.value.row == 14
        assert not np.isfinite(exc.value.value)
        assert str(exc.value).startswith(
            "collocation residual not finite before the step: row 14 is "
        )

    def test_state_fails_after_the_step(self, monkeypatch):
        def overflowed(band, rhs_vec):
            state = np.zeros_like(rhs_vec)
            state[9] = np.inf  # W at node 4
            return state

        monkeypatch.setattr(bvp, "_solve_linear", overflowed)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResidualError) as exc:
            newton_solve(make_problem(np.cos, 21))
        # W_4 enters the U rows 2i+1 of intervals i = 3 and 4; 7 comes first
        assert str(exc.value) == "collocation residual not finite after the step: row 7 is -inf"


class TestSparseJacobian:
    """The assembled collocation matrix on the depth-4 slice coefficients,
    whose c1/c2 spans 6.6 to 3.7e9 on the 31 x1 nodes.  The source is
    zero, so the residual is the matrix times the state: forward
    differences then see no rounding of a constant part."""

    @pytest.fixture(scope="class")
    def problem(self, params_k4, table_k4):
        sp = SliceProblem(
            x2_tilde=0.35, params=params_k4, table=table_k4, rhs=lambda x1, x2: 0.0 * x1
        )
        x1 = np.linspace(0.0, 1.0, 31)  # the coefficients are posed in x1
        g, c1, c2 = first_order_system(sp)(x1)
        return BvpProblem(x1, g, c1, c2)

    def test_matches_columnwise_forward_differences(self, problem):
        state = np.random.default_rng(5).standard_normal(2 * problem.n_nodes)
        r0 = _residual(problem, state)
        jac = to_dense(_collocation_band(problem))
        ref = np.empty_like(jac)
        for j in range(len(state)):
            eps = 1e-7 * (1.0 + abs(state[j]))
            pert = state.copy()
            pert[j] += eps
            ref[:, j] = (_residual(problem, pert) - r0) / eps
        # forward differences differ from the exact entries by the rounding
        # of r, about 1e-16 |r| / eps, so compare against each row's largest
        scale = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(jac - ref) <= 1e-6 * scale)

    def test_entries_stay_in_two_node_stencil(self, problem):
        n = problem.n_nodes
        band = _collocation_band(problem)
        r = np.arange(2 * n)[None, :] + np.arange(-KL - KU, KL + 1)[:, None]
        c = np.broadcast_to(np.arange(2 * n), band.shape)
        # boundary rows see their end node's U; the U row of interval i
        # (row 2i+1) sees U and W of nodes i and i+1, its W row (row 2i+2)
        # only W of nodes i and i+1
        interval = (r - 1) // 2
        in_stencil = np.where(
            r == 0,
            c == 0,
            np.where(
                r == 2 * n - 1,
                c == 2 * n - 2,
                (r > 0)
                & (r < 2 * n - 1)
                & ((c // 2 == interval) | (c // 2 == interval + 1))
                & ((r % 2 == 1) | (c % 2 == 1)),
            ),
        )
        assert np.all(band[~in_stencil] == 0.0)
        assert np.count_nonzero(in_stencil) == 6 * n - 4


class TestSolveLinear:
    def test_exactly_singular_matrix_raises(self):
        # pivoting swaps rows 0 and 1, then row 1 of the factor is all zero
        band = to_band(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SingularMatrixError) as exc:
            _solve_linear(band, np.ones(3))
        assert (exc.value.pivot_index, exc.value.pivot_value) == (1, 0.0)
        assert str(exc.value) == "singular Newton matrix: pivot 1 has magnitude 0"

    def test_vanishing_pivot_raises(self):
        band = to_band(np.diag([1.0, 1e-306, 2.0]))
        with pytest.raises(SingularMatrixError) as exc:
            _solve_linear(band, np.ones(3))
        assert (exc.value.pivot_index, exc.value.pivot_value) == (1, 1e-306)

    def test_nan_pivot_raises(self):
        band = to_band(np.diag([1.0, np.nan, 2.0]))
        with pytest.raises(SingularMatrixError) as exc:
            _solve_linear(band, np.ones(3))
        assert exc.value.pivot_index == 1 and np.isnan(exc.value.pivot_value)

    def test_band_overflowing_to_inf_raises(self):
        # finite coefficients whose ratio c1/c2 = 1e310 overflows the band to
        # inf, so elimination leaves NaN pivots; the residual before the
        # step is finite (1e9)
        problem = BvpProblem(np.linspace(0.0, 1.0, 11), 1.0, 1e300, 1e-10)
        with np.errstate(all="ignore"), pytest.raises(SingularMatrixError) as exc:
            newton_solve(problem)
        assert np.isnan(exc.value.pivot_value)


def csv_oracle(header, rows) -> bytes:
    """The bytes write_csv must produce: one csv.writer row of "%.17g" % v per row."""
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    for row in rows:
        w.writerow(["%.17g" % v for v in row])
    return ref.getvalue().encode()


def written(path, rows) -> bytes:
    header = [f"c{j}" for j in range(rows.shape[1])]
    bvp.write_csv([(path, rows)], header)
    assert path.read_bytes() == csv_oracle(header, rows)
    return path.read_bytes()


def fixed_window_ties():
    """Doubles in [1e-4, 1e17) whose exact decimal expansion has 18 significant
    digits, the last a 5: "%.17g" must round them half to even."""
    ties = []
    for m in range(1, 2**10, 2):
        for k in range(-40, 50):
            x = float(np.ldexp(m, k))
            digits = Decimal(x).as_tuple().digits
            if 1e-4 <= x < 1e17 and len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    return ties


class TestExport:
    def test_matches_rowwise_csv_writer(self, tmp_path):
        # reference: one csv.writer row per node; 2500 rows span several
        # write blocks and the values span the float64 exponent range
        rng = np.random.default_rng(3)
        n = 2500
        sol = BvpSolution(
            nodes=np.linspace(0.0, 1.0, n),
            U=rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            W=rng.standard_normal(n),
            iterations=1,
        )
        extra = rng.standard_normal(n)
        export_solution_csv([(tmp_path / "sol.csv", sol, [extra])], ["extra"])
        rows = np.column_stack([sol.nodes, sol.U, sol.W, extra])
        assert (tmp_path / "sol.csv").read_bytes() == csv_oracle(["z", "U", "W", "extra"], rows)

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        # 1e-5 .. 1e17 bracket the fixed-notation window [1e-4, 1e17) of %.17g,
        # where log10 may land one decade off
        powers = 10.0 ** np.arange(-5, 18)
        values = [powers]
        for direction in (0.0, np.inf):
            step = powers
            for _ in range(3):
                step = np.nextafter(step, direction)
                values.append(step)
        values = np.concatenate(values)
        written(tmp_path / "p.csv", np.stack([values, -values], axis=1))

    def test_no_rounding_carries_into_an_18th_digit(self):
        # the double just below each power of ten in the window is the only one
        # that could round up to it at 17 digits; none does, so write_csv can
        # leave such a value to "%.17g" without a carry step
        for k in range(-4, 18):
            below = np.nextafter(10.0**k, 0.0)
            assert float("%.17g" % below) < 10.0**k

    def test_ties_round_half_to_even(self, tmp_path):
        ties = fixed_window_ties()
        # both directions occur: an even 17th digit stays, an odd one rounds up
        parity = {Decimal(x).as_tuple().digits[-2] % 2 for x in ties}
        assert len(ties) > 100 and parity == {0, 1}
        written(tmp_path / "t.csv", np.array(ties + [-t for t in ties]).reshape(-1, 2))

    def test_near_one_and_edge_values(self, tmp_path):
        tiny = np.finfo(float).tiny
        edge = [0.99999999999999994, 1 - 2**-53, 0.1, 1 / 3, 2.0 / 3, 9.999999999999999e-5,
                0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0),
                1e300, -1e300, np.finfo(float).max, 1e16, 99999999999999984.0, 12345678901234567.0,
                123.0, 100.5, 0.0001, 0.00012, -0.0001234]
        written(tmp_path / "e.csv", np.array(edge).reshape(-1, 1))

    @pytest.mark.parametrize("n_rows", [0, 1, bvp.CSV_BLOCK_ROWS, bvp.CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("n_cols", [1, 3])
    def test_table_shapes(self, tmp_path, n_rows, n_cols):
        rng = np.random.default_rng(n_rows + n_cols)
        rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-6, 19, (n_rows, n_cols))
        data = written(tmp_path / "s.csv", rows)
        assert data.count(b"\r\n") == n_rows + 1

    @pytest.mark.parametrize(
        "sizes",
        [
            [1, 101, 1023, 0, 1024, 1025, 2500],  # every block cuts a table
            [1024, 0, 1023, 1, 2500, 101, 1025],  # two blocks end where a table does
        ],
    )
    def test_grouped_tables(self, tmp_path, format_block_rows, sizes):
        # one call formats consecutive tables together; each file is still
        # the row-wise oracle's, the fallback values at the cuts included,
        # and no block exceeds CSV_BLOCK_ROWS rows, which bounds the memory
        # a block takes
        rng = np.random.default_rng(7)
        fallback = [1e-5, -0.0, np.nan, np.inf, -np.inf, 1e300]
        tables = []
        for j, n in enumerate(sizes):
            rows = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-6, 19, (n, 3))
            if n:
                rows[0], rows[-1] = fallback[:3], fallback[3:]
            tables.append((tmp_path / f"t{j}.csv", rows))
        header = ["a", "b", "c"]
        bvp.write_csv(tables, header)
        for path, rows in tables:
            assert path.read_bytes() == csv_oracle(header, rows)
        assert max(format_block_rows) == bvp.CSV_BLOCK_ROWS
        last = sum(sizes) - 5 * bvp.CSV_BLOCK_ROWS
        assert format_block_rows == [bvp.CSV_BLOCK_ROWS] * 5 + [last]

    def test_rejects_rows_of_another_width(self, tmp_path):
        # every table shares the header, so a table of another width is refused
        tables = [(tmp_path / "a.csv", np.ones((4, 2))), (tmp_path / "b.csv", np.ones((4, 3)))]
        with pytest.raises(ValueError, match=r"shape \(4, 3\) for 2 columns"):
            bvp.write_csv(tables, ["a", "b"])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), max_size=40), n_cols=st.integers(1, 4))
    def test_any_floats(self, tmp_path_factory, values, n_cols):
        values += [0.0] * (-len(values) % n_cols)
        rows = np.array(values, dtype=float).reshape(-1, n_cols)
        written(tmp_path_factory.mktemp("any") / "a.csv", rows)


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            make_problem(lambda z: z, 2)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="increase in equal steps"):
            BvpProblem(np.full(11, 1.0), 0.0, 0.0, 1.0)

    def test_rejects_decreasing_nodes(self):
        with pytest.raises(ValueError, match="increase in equal steps"):
            BvpProblem(np.linspace(1.0, 0.0, 11), 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("node, shift", [(1, 1e-9), (5, 1e-12), (10, -1e-13)])
    def test_rejects_uneven_nodes(self, node, shift):
        # the solver reads only the first step, so any other step that
        # differs from it by more than rounding would be solved wrongly
        nodes = np.linspace(0.0, 1.0, 11)
        nodes[node] += shift
        with pytest.raises(ValueError, match="increase in equal steps"):
            BvpProblem(nodes, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("n", [3, 1001, 100_001])
    def test_accepts_rounded_even_steps(self, n):
        # linspace and arange meshes, off [0, 1] too, differ from equal
        # steps by rounding only
        for nodes in (np.linspace(0.2, 3.7, n), 0.3 + np.arange(n) * (1.0 / (n - 1))):
            assert BvpProblem(nodes, 0.0, 0.0, 1.0).n_nodes == n

    @pytest.mark.parametrize("name", ["g", "c1", "c2"])
    @pytest.mark.parametrize("size", [1, 10, 12])
    def test_rejects_coefficient_of_another_length(self, name, size):
        coefficients = {"g": 0.0, "c1": 0.0, "c2": 1.0}
        coefficients[name] = np.ones(size)
        with pytest.raises(ValueError, match=f"{name} has {size} values for 11 nodes"):
            BvpProblem(np.linspace(0.0, 1.0, 11), **coefficients)

    def test_broadcasts_scalar_coefficients(self):
        problem = BvpProblem(np.linspace(0.0, 1.0, 11), np.arange(11.0), 0.5, 1)
        assert np.array_equal(problem.g, np.arange(11.0))
        for values, scalar in ((problem.c1, 0.5), (problem.c2, 1.0)):
            assert values.shape == (11,) and np.all(values == scalar)

    def test_rejects_bad_tolerance(self):
        problem = make_problem(lambda z: z, 11)
        for tol in (0.0, -1e-10, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite number above 0"):
                newton_solve(problem, tol=tol)

    def test_residual_rejects_foreign_mesh(self):
        p1 = make_problem(lambda z: z, 11)
        p2 = make_problem(lambda z: z, 21)
        sol = newton_solve(p1)
        with pytest.raises(ValueError):
            ode_residual(sol, p2)
