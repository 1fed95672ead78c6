"""Slice construction, change of variables, coefficients, field assembly."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from kstpde import checks
from kstpde.inner import MonotonicityError, psi_eval
from kstpde.reduction import (
    Field2D,
    SliceProblem,
    analytic_solution,
    boundary_conditions,
    compare_slice,
    export_field_csv,
    first_order_system,
    jacobian_factor,
    ode_coefficients,
    reconstruct_field,
    slice_bounds,
    solve_slice,
    x1_of_z,
)


class TestSliceBounds:
    def test_at_zero(self, params_k1, table_k1):
        z_min, z_max = slice_bounds(0.0, params_k1, table_k1)
        assert z_min == 0.0
        assert z_max == params_k1.alpha_float[0]

    def test_identity_table_midpoint(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        z_min, z_max = slice_bounds(0.5, params_k1, table_k1)
        assert z_min == pytest.approx(0.5 * a2)
        assert z_max == pytest.approx(a1 + 0.5 * a2)

    def test_width_is_alpha1(self, params_k4, table_k4):
        a1 = params_k4.alpha_float[0]
        for x2 in (0.0, 0.31, 0.77, 1.0):
            z_min, z_max = slice_bounds(x2, params_k4, table_k4)
            assert z_max - z_min == pytest.approx(a1, abs=1e-15)

    def test_rejects_out_of_domain(self, params_k1, table_k1):
        with pytest.raises(ValueError):
            slice_bounds(1.5, params_k1, table_k1)

    def test_rejects_flat_float_table(self, params_k1, table_k1):
        # a valid exact table whose float64 view has lost strict
        # monotonicity, as at depth 5, cannot be inverted on a slice
        values = table_k1.values.copy()
        values[4] = values[3]
        flat = dataclasses.replace(table_k1, values=values)
        with pytest.raises(MonotonicityError) as exc:
            SliceProblem(x2_tilde=0.5, params=params_k1, table=flat)
        assert exc.value.nodes == (table_k1.nodes[3], table_k1.nodes[4])
        assert exc.value.values == (values[3], values[4])


class TestX1OfZ:
    def test_endpoints(self, params_k4, table_k4):
        z_min, z_max = slice_bounds(0.4, params_k4, table_k4)
        assert x1_of_z(z_min, 0.4, params_k4, table_k4) == pytest.approx(0.0, abs=1e-12)
        assert x1_of_z(z_max, 0.4, params_k4, table_k4) == pytest.approx(1.0, abs=1e-12)

    def test_linear_for_identity_table(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        x2 = 0.5
        for z in np.linspace(*slice_bounds(x2, params_k1, table_k1), 7):
            assert x1_of_z(z, x2, params_k1, table_k1) == pytest.approx(
                (z - a2 * x2) / a1, abs=1e-12
            )

    def test_rejects_outside_bounds(self, params_k1, table_k1):
        with pytest.raises(ValueError):
            x1_of_z(2.0, 0.5, params_k1, table_k1)


class TestJacobianFactor:
    def test_identity_table_constant(self, params_k1, table_k1):
        a1 = params_k1.alpha_float[0]
        z_min, z_max = slice_bounds(0.3, params_k1, table_k1)
        for z in np.linspace(z_min, z_max, 5):
            assert jacobian_factor(z, 0.3, params_k1, table_k1) == pytest.approx(
                1.0 / a1, rel=1e-12
            )

    def test_k4_matches_raw_table_difference(self, params_k4, table_k4):
        x2 = 0.6
        z_min, z_max = slice_bounds(x2, params_k4, table_k4)
        z = 0.5 * (z_min + z_max)
        x1 = x1_of_z(z, x2, params_k4, table_k4)
        delta = table_k4.delta
        raw = (psi_eval(table_k4, x1 + delta) - psi_eval(table_k4, x1)) / delta
        a1 = params_k4.alpha_float[0]
        assert jacobian_factor(z, x2, params_k4, table_k4) == pytest.approx(
            1.0 / (a1 * raw), rel=1e-12
        )


class TestOdeCoefficients:
    def test_identity_table_values(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        coeffs = ode_coefficients(sp)
        z = 0.5 * sum(sp.bounds)
        assert coeffs.c2(z) == pytest.approx((a1**2 + a2**2) / a1, rel=1e-9)
        assert coeffs.c1(z) == pytest.approx(0.0, abs=1e-9)
        assert coeffs.c0(z) == pytest.approx(0.0, abs=1e-9)
        x1 = x1_of_z(z, 0.5, params_k1, table_k1)
        assert coeffs.g(z) == pytest.approx(
            math.sin(math.pi * x1) * math.sin(math.pi * 0.5) / a1, rel=1e-9
        )

    def test_zero_source_row(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.0, params=params_k1, table=table_k1)
        coeffs = ode_coefficients(sp)
        for z in np.linspace(*sp.bounds, 5):
            assert coeffs.g(z) == pytest.approx(0.0, abs=1e-15)

    def test_c2_positive_on_slices(self, params_k4, table_k4):
        for x2 in (0.1, 0.5, 0.9):
            sp = SliceProblem(x2_tilde=x2, params=params_k4, table=table_k4)
            coeffs = ode_coefficients(sp)
            z = np.linspace(*sp.bounds, 101)
            assert np.all(coeffs.c2(z) > 0.0)


class TestFirstOrderSystem:
    def test_identity_table_w_prime(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        rhs = first_order_system(ode_coefficients(sp))
        z = 0.5 * sum(sp.bounds)
        x1 = x1_of_z(z, 0.5, params_k1, table_k1)
        du, dw = rhs(z, 0.0, 0.0)
        assert du == 0.0
        assert dw == pytest.approx(
            math.sin(math.pi * x1) / (a1**2 + a2**2), rel=1e-9
        )

    def test_zero_state_zero_source(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.0, params=params_k1, table=table_k1)
        rhs = first_order_system(ode_coefficients(sp))
        du, dw = rhs(0.5 * sum(sp.bounds), 0.0, 0.0)
        assert du == 0.0 and dw == pytest.approx(0.0, abs=1e-15)

    def test_algebraic_rederivation_at_random_states(self, params_k4, table_k4):
        # oracle: multiply W' back by c2 and compare against the second-order
        # form evaluated directly
        rng = np.random.default_rng(21)
        sp = SliceProblem(x2_tilde=0.35, params=params_k4, table=table_k4)
        coeffs = ode_coefficients(sp)
        rhs = first_order_system(coeffs)
        z_min, z_max = sp.bounds
        for _ in range(20):
            z = rng.uniform(z_min, z_max)
            u, w = rng.standard_normal(2)
            _, dw = rhs(z, u, w)
            terms = (coeffs.c2(z) * dw, coeffs.c1(z) * w, coeffs.c0(z) * u)
            scale = max(abs(t) for t in terms) + 1.0
            # residual measured against the largest term: the depth-4
            # coefficients are huge and cancel, so g itself is a poor scale
            assert abs(sum(terms) - coeffs.g(z)) <= 1e-12 * scale


    def test_memo_follows_a_new_mesh(self, params_k4, table_k4):
        # the callable keeps one mesh's coefficients; a second mesh of the
        # same length must not reuse them
        sp = SliceProblem(x2_tilde=0.35, params=params_k4, table=table_k4)
        coeffs = ode_coefficients(sp)
        rhs = first_order_system(coeffs)
        z_min, z_max = sp.bounds
        rng = np.random.default_rng(8)
        u, w = rng.standard_normal((2, 101))
        for z in (
            np.linspace(z_min, z_max, 101),
            np.linspace(z_min, 0.5 * (z_min + z_max), 101),
            np.linspace(z_min, z_max, 101),
        ):
            du, dw = rhs(z, u, w)
            fresh_du, fresh_dw = first_order_system(coeffs)(z, u, w)
            assert np.array_equal(du, fresh_du) and np.array_equal(dw, fresh_dw)


class TestBoundaryConditions:
    def test_identity_table_brackets(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        left, right = boundary_conditions(sp)
        expected = a1 + a2**2 / a1
        assert left == pytest.approx(expected, rel=1e-9)
        assert right == pytest.approx(expected, rel=1e-9)

    def test_k4_brackets_nonzero(self, params_k4, table_k4):
        sp = SliceProblem(x2_tilde=0.25, params=params_k4, table=table_k4)
        left, right = boundary_conditions(sp)
        assert abs(left) > 1e-12
        assert abs(right) > 1e-12


class TestAnalyticSolution:
    def test_center_value(self):
        assert analytic_solution(0.5, 0.5) == pytest.approx(-1.0 / (2.0 * math.pi**2))

    def test_boundary(self):
        assert analytic_solution(0.0, 0.37) == pytest.approx(0.0, abs=1e-16)
        assert analytic_solution(0.42, 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_finite_difference_laplacian(self):
        h = 1e-3
        x1, x2 = 0.3, 0.7
        lap = (
            analytic_solution(x1 + h, x2)
            - 2 * analytic_solution(x1, x2)
            + analytic_solution(x1 - h, x2)
            + analytic_solution(x1, x2 + h)
            - 2 * analytic_solution(x1, x2)
            + analytic_solution(x1, x2 - h)
        ) / h**2
        assert lap == pytest.approx(
            math.sin(math.pi * x1) * math.sin(math.pi * x2), abs=1e-6
        )


class TestCompareAndReconstruct:
    def test_zero_source_slice_report(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.0, params=params_k1, table=table_k1)
        sol, _ = solve_slice(sp, n_nodes=201)
        report = compare_slice(sol, sp)
        assert report.linf_vs_analytic == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(sol.U)) <= 1e-12

    def test_midrow_shape_agreement(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        sol, _ = solve_slice(sp, n_nodes=501)
        report = compare_slice(sol, sp)
        assert report.linf_vs_closed_form <= 1e-6
        assert report.amplitude_ratio > 0  # same sign extremum
        assert abs(report.extremum_z_numeric - report.extremum_z_analytic) <= 0.01

    def test_reconstructed_field_boundary_and_roundtrip(self, params_k1, table_k1):
        rows = np.linspace(0.0, 1.0, 5)
        solutions = {}
        for x2 in map(float, rows):
            sp = SliceProblem(x2_tilde=x2, params=params_k1, table=table_k1)
            sol, _ = solve_slice(sp, n_nodes=201)
            solutions[x2] = (sol, sp)
        x1_nodes = np.linspace(0.0, 1.0, 9)
        field = reconstruct_field(solutions, x1_nodes, rows)
        assert np.all(np.abs(field.values[0, :]) <= 1e-10)
        assert np.all(np.abs(field.values[-1, :]) <= 1e-10)
        assert np.all(field.values[:, 0] == 0.0)
        # roundtrip: interior values equal direct slice lookups
        a1, a2 = params_k1.alpha_float
        sol, sp = solutions[float(rows[2])]
        z = a1 * psi_eval(table_k1, x1_nodes) + a2 * psi_eval(table_k1, rows[2])
        direct = np.interp(z, sol.nodes, sol.U)
        assert np.allclose(field.values[:, 2], direct, atol=0.0)

    def test_missing_row_rejected(self, params_k1, table_k1):
        with pytest.raises(KeyError):
            reconstruct_field({}, np.linspace(0, 1, 3), np.array([0.5]))

    def test_field_csv_matches_cellwise_writer(self, tmp_path):
        # reference: one csv.writer row and one scalar analytic_solution
        # call per cell; 37 x 41 cells span more than one write block
        x1, x2 = np.linspace(0.0, 1.0, 37), np.linspace(0.0, 1.0, 41)
        values = np.random.default_rng(4).standard_normal((37, 41)) * 1e-3
        export_field_csv(Field2D(x1=x1, x2=x2, values=values), tmp_path / "field.csv")
        ref = io.StringIO(newline="")
        w = csv.writer(ref)
        w.writerow(["x1", "x2", "u_numeric", "u_analytic", "abs_err"])
        for i, a in enumerate(x1):
            for j, b in enumerate(x2):
                u_an = float(analytic_solution(a, b))
                cells = (a, b, values[i, j], u_an, abs(values[i, j] - u_an))
                w.writerow(["%.17g" % v for v in cells])
        assert (tmp_path / "field.csv").read_bytes() == ref.getvalue().encode()


class TestAmplitudeRatio:
    """At k=1 psi' = 1, so c2 = (a1^2 + a2^2)/a1 is constant and the slice
    ODE in x1 = (z - z_min)/a1 reads U'' = a1^2 f/(a1^2 + a2^2), while the
    analytic restriction solves u'' = f/2.  Both vanish at the ends, so
    U/u = 2 a1^2/(a1^2 + a2^2).  The trapezoidal solve undershoots that
    limit by about 3.26 h^2 on every row."""

    @pytest.mark.parametrize("n_nodes", [101, 251, 501])
    @pytest.mark.parametrize("x2", [0.25, 0.5])
    def test_gap_to_order_zero_prediction(self, x2, n_nodes, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=x2, params=params_k1, table=table_k1)
        sol, _ = solve_slice(sp, n_nodes=n_nodes)
        h = sol.nodes[1] - sol.nodes[0]
        gap = compare_slice(sol, sp).amplitude_ratio - 2 * a1**2 / (a1**2 + a2**2)
        assert gap < 0
        assert abs(gap) <= 4 * h**2


class TestChangeOfVariablesIdentity:
    @pytest.mark.parametrize("coeffs", checks.QUADRATURE_CUBICS)
    def test_cubic_transfer(self, coeffs, params_k1, table_k1):
        assert checks.quadrature_transfer_error(coeffs, params_k1, table_k1) <= 1e-10
