"""Collocation solver on problems with known closed forms."""

import csv
import io

import numpy as np
import pytest

from kstpde.bvp import (
    JAC_STEP,
    BvpProblem,
    BvpSolution,
    _fd_jacobian,
    _residual,
    export_solution_csv,
    newton_solve,
    ode_residual,
)


def make_problem(rhs_w, n_nodes, z_min=0.0, z_max=1.0):
    def rhs(z, U, W):
        return W, rhs_w(z, U, W)

    return BvpProblem(z_min=z_min, z_max=z_max, rhs=rhs, n_nodes=n_nodes)


class TestNewtonSolve:
    def test_homogeneous_stays_zero(self):
        problem = make_problem(lambda z, U, W: np.zeros_like(z), 51)
        sol = newton_solve(problem)
        assert sol.converged
        assert sol.iterations <= 1
        assert np.max(np.abs(sol.U)) == 0.0

    def test_constant_forcing_quadratic(self):
        # U'' = 2 with zero ends has the exact solution U = z(z-1), which
        # trapezoidal collocation reproduces exactly up to rounding
        problem = make_problem(lambda z, U, W: 2.0 * np.ones_like(z), 1001)
        sol = newton_solve(problem)
        z = sol.nodes
        assert sol.converged
        assert np.max(np.abs(sol.U - z * (z - 1.0))) <= 1e-8

    def test_linear_problem_single_iteration(self):
        # for a linear residual the Newton step is exact: a second solve
        # started from the first answer must not move
        problem = make_problem(lambda z, U, W: np.sin(3.0 * z) - 0.5 * U, 201)
        first = newton_solve(problem)
        assert first.converged and first.iterations == 1
        state = np.concatenate([first.U, first.W])
        second = newton_solve(problem, initial_guess=state)
        assert second.iterations == 0
        assert np.max(np.abs(second.U - first.U)) <= 1e-10 * (
            1.0 + np.max(np.abs(first.U))
        )

    def test_linear_problem_at_1e5_nodes(self):
        # the sparse Newton core keeps a 200,002-unknown slice to one step
        problem = make_problem(lambda z, U, W: np.sin(3.0 * z) - 0.5 * U, 100_001)
        sol = newton_solve(problem)
        assert sol.converged and sol.iterations == 1

    def test_second_order_mesh_convergence(self):
        # U'' = -pi^2 sin(pi z): trapezoidal error should drop ~4x per halving
        def run(n):
            problem = make_problem(
                lambda z, U, W: -np.pi**2 * np.sin(np.pi * z), n
            )
            sol = newton_solve(problem)
            return np.max(np.abs(sol.U - np.sin(np.pi * sol.nodes)))

        e_coarse, e_fine = run(101), run(201)
        assert 3.0 <= e_coarse / e_fine <= 5.0

    def test_discrete_residual_reported(self):
        problem = make_problem(lambda z, U, W: np.cos(z), 101)
        sol = newton_solve(problem, tol=1e-10)
        assert ode_residual(sol, problem) <= 1e-10

    def test_residual_detects_perturbation(self):
        problem = make_problem(lambda z, U, W: np.cos(z), 101)
        sol = newton_solve(problem)
        h = (problem.z_max - problem.z_min) / (problem.n_nodes - 1)
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
        # quadratic growth makes zero-start Newton wander; with one
        # iteration allowed it must report rather than raise
        problem = make_problem(lambda z, U, W: U**2 + 10.0, 51)
        sol = newton_solve(problem, max_iter=1)
        assert not sol.converged
        assert sol.iterations == 1
        assert len(sol.residual_history) == 2

    def test_nonlinear_converges_with_enough_iterations(self):
        problem = make_problem(lambda z, U, W: np.exp(U) - 1.0 + np.cos(z), 101)
        sol = newton_solve(problem, tol=1e-10)
        assert sol.converged
        assert ode_residual(sol, problem) <= 1e-10


class TestSparseJacobian:
    def make_case(self, n=31):
        problem = make_problem(lambda z, U, W: np.exp(U) - 1.0 + np.cos(z), n)
        z = problem.nodes
        state = np.random.default_rng(5).standard_normal(2 * n)
        return problem, z, state, _residual(problem, z, state)

    def test_matches_columnwise_forward_differences(self):
        problem, z, state, r0 = self.make_case()
        jac = _fd_jacobian(problem, z, state, r0).toarray()
        ref = np.empty_like(jac)
        for col in range(len(state)):
            eps = JAC_STEP * (1.0 + abs(state[col]))
            pert = state.copy()
            pert[col] += eps
            ref[:, col] = (_residual(problem, z, pert) - r0) / eps
        assert np.max(np.abs(jac - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_entries_stay_in_two_node_stencil(self):
        problem, z, state, r0 = self.make_case()
        n = problem.n_nodes
        coo = _fd_jacobian(problem, z, state, r0).tocoo()
        node = coo.col % n
        # boundary rows see their end node; interval rows i and n+i-1 see
        # nodes i-1 and i
        interval = np.where(coo.row < n, coo.row - 1, coo.row - n)
        in_stencil = np.where(
            coo.row == 0,
            node == 0,
            np.where(
                coo.row == 2 * n - 1,
                node == n - 1,
                (node == interval) | (node == interval + 1),
            ),
        )
        assert in_stencil.all()
        assert coo.nnz == 8 * n - 4


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
        export_solution_csv(sol, tmp_path / "sol.csv", extra_cols={"extra": extra})
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["z", "U", "W", "extra"])
        for row in zip(sol.nodes, sol.U, sol.W, extra):
            w.writerow(["%.17g" % v for v in row])
        assert (tmp_path / "sol.csv").read_bytes() == ref.getvalue().encode()


class TestValidation:
    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            make_problem(lambda z, U, W: z, 2)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            make_problem(lambda z, U, W: z, 11, z_min=1.0, z_max=1.0)

    def test_rejects_bad_tolerance(self):
        problem = make_problem(lambda z, U, W: z, 11)
        with pytest.raises(ValueError):
            newton_solve(problem, tol=0.0)

    def test_rejects_bad_initial_guess_shape(self):
        problem = make_problem(lambda z, U, W: z, 11)
        with pytest.raises(ValueError):
            newton_solve(problem, initial_guess=np.zeros(5))

    def test_residual_rejects_foreign_mesh(self):
        p1 = make_problem(lambda z, U, W: z, 11)
        p2 = make_problem(lambda z, U, W: z, 21)
        sol = newton_solve(p1)
        with pytest.raises(ValueError):
            ode_residual(sol, p2)
