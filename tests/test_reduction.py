"""Slice construction, change of variables, coefficients, field assembly."""

import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, fixed_quad, trapezoid

from kstpde import checks, cli, inner, reduction
from kstpde.bvp import ode_residual
from kstpde.inner import (
    MonotonicityError,
    build_psi,
    compute_constants,
    psi_derivative,
    psi_eval,
    psi_inverse,
    psi_jet,
)
from kstpde.reduction import (
    DegenerateBoundaryError,
    Field2D,
    SliceProblem,
    analytic_solution,
    boundary_conditions,
    compare_slice,
    export_field_csv,
    first_order_system,
    reconstruct_field,
    reduced_closed_form,
    solve_slice,
    trapezoid_panels,
    x1_of_z,
)


def bounds(x2, params, table):
    return SliceProblem(x2_tilde=x2, params=params, table=table).bounds


class TestSliceBounds:
    def test_at_zero(self, params_k1, table_k1):
        z_min, z_max = bounds(0.0, params_k1, table_k1)
        assert z_min == 0.0
        assert z_max == params_k1.alpha_float[0]

    def test_identity_table_midpoint(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        z_min, z_max = bounds(0.5, params_k1, table_k1)
        assert z_min == pytest.approx(0.5 * a2)
        assert z_max == pytest.approx(a1 + 0.5 * a2)

    def test_width_is_alpha1(self, params_k4, table_k4):
        a1 = params_k4.alpha_float[0]
        for x2 in (0.0, 0.31, 0.77, 1.0):
            z_min, z_max = bounds(x2, params_k4, table_k4)
            assert z_max - z_min == pytest.approx(a1, abs=1e-15)

    def test_rejects_out_of_domain(self, params_k1, table_k1):
        with pytest.raises(ValueError):
            bounds(1.5, params_k1, table_k1)

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
        sp = SliceProblem(x2_tilde=0.4, params=params_k4, table=table_k4)
        z_min, z_max = sp.bounds
        assert x1_of_z(z_min, sp) == pytest.approx(0.0, abs=1e-12)
        assert x1_of_z(z_max, sp) == pytest.approx(1.0, abs=1e-12)

    def test_linear_for_identity_table(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        for z in np.linspace(*sp.bounds, 7):
            assert x1_of_z(z, sp) == pytest.approx((z - a2 * 0.5) / a1, abs=1e-12)

    def test_rejects_outside_bounds(self, params_k1, table_k1):
        with pytest.raises(ValueError):
            x1_of_z(2.0, SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1))


def separate_formulas(sp, x1):
    """(g, c1, c2) of the chain form Delta(U(z)) = f for V(x1) = U(z(x1, x2~)),
    g = f, c1 = T/q - S^2 q'/q^3 and c2 = 1 + S^2/q^2, written out one by one
    from psi_derivative, with q = a1 psi'(x1), q' = a1 psi''(x1),
    S = a2 psi'(x2~) and T = a2 psi''(x2~); c1 as (T - (S/q)^2 q')/q."""
    params, table, x2 = sp.params, sp.table, sp.x2_tilde
    a1, a2 = params.alpha_float[:2]
    S = a2 * psi_derivative(table, 1, x2)
    T = a2 * psi_derivative(table, 2, x2)
    q = a1 * psi_derivative(table, 1, x1)
    dq = a1 * psi_derivative(table, 2, x1)
    return sp.rhs(x1, x2), (T - (S / q) ** 2 * dq) / q, 1.0 + (S / q) ** 2


def counting_psi_calls(monkeypatch):
    """Wrap psi_inverse and psi_jet where kstpde.reduction calls them; the
    returned list collects (name, argument size)."""
    calls = []

    def inverse(table, y):
        calls.append(("psi_inverse", np.size(y)))
        return psi_inverse(table, y)

    def jet(table, x):
        calls.append(("psi_jet", np.size(x)))
        return psi_jet(table, x)

    monkeypatch.setattr(reduction, "psi_inverse", inverse)
    monkeypatch.setattr(reduction, "psi_jet", jet)
    return calls


class TestOdeCoefficients:
    def test_identity_table_values(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        x1 = 0.37
        g, c1, c2 = first_order_system(sp)(x1)
        assert c2 == pytest.approx(1.0 + (a2 / a1) ** 2, rel=1e-15)
        assert c1 == 0.0
        assert g == pytest.approx(math.sin(math.pi * x1) * math.sin(math.pi * 0.5), rel=1e-15)

    def test_zero_source_row(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.0, params=params_k1, table=table_k1)
        g, _, _ = first_order_system(sp)(np.linspace(0.0, 1.0, 5))
        assert np.all(np.abs(g) <= 1e-15)

    def test_c2_positive_on_slices(self, params_k4, table_k4):
        for x2 in (0.1, 0.5, 0.9):
            sp = SliceProblem(x2_tilde=x2, params=params_k4, table=table_k4)
            _, _, c2 = first_order_system(sp)(np.linspace(0.0, 1.0, 101))
            assert np.all(c2 >= 1.0)

    @pytest.mark.parametrize("k, x2", [(2, 0.3), (4, 0.35)])
    def test_one_pass_equals_separate_formulas(self, k, x2):
        params = compute_constants(2, 10, 8, k=k)
        sp = SliceProblem(x2_tilde=x2, params=params, table=build_psi(params))
        x1 = np.linspace(0.0, 1.0, 1001)
        for one_pass, separate in zip(first_order_system(sp)(x1), separate_formulas(sp, x1)):
            assert np.array_equal(one_pass, separate)

    def test_coefficients_never_read_psi_of_x1(self, params_k2, table_k2, monkeypatch):
        # adding a constant to psi only translates z, so at the same x1 the
        # coefficients must not move when entry 0 of the x1 jet is shifted;
        # the slice geometry, read from the jet at x2~, is fixed beforehand
        sp = SliceProblem(x2_tilde=0.3, params=params_k2, table=table_k2)
        x1 = np.linspace(0.0, 1.0, 1001)
        before = first_order_system(sp)(x1)

        def shifted_jet(table, x):
            jet = psi_jet(table, x)
            return [jet[0] + 0.5, *jet[1:]]

        monkeypatch.setattr(reduction, "psi_jet", shifted_jet)
        after = first_order_system(sp)(x1)
        assert len(after) == len(before)
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_one_psi_pass_per_evaluation(self, params_k4, table_k4, monkeypatch):
        sp = SliceProblem(x2_tilde=0.35, params=params_k4, table=table_k4)
        sp.jet_x2  # the cached jet at x2~, computed once per slice before counting
        coefficients = first_order_system(sp)
        calls = counting_psi_calls(monkeypatch)
        coefficients(np.linspace(0.0, 1.0, 101))
        assert calls == [("psi_jet", 101)]

    def test_closed_form_needs_only_x1_and_psi_prime(self, params_k4, table_k4, monkeypatch):
        sp = SliceProblem(x2_tilde=0.35, params=params_k4, table=table_k4)
        calls = counting_psi_calls(monkeypatch)
        reduced_closed_form(sp, np.linspace(*sp.bounds, 101))
        # one pass on the 8x-refined x1 mesh of 801 nodes, plus the jet at x2~
        assert sorted(calls, key=str) == [("psi_jet", 1), ("psi_jet", 801)]


class TestFirstOrderSystem:
    def test_identity_table_w_prime(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        coefficients = first_order_system(sp)
        x1 = 0.37
        g, _, c2 = coefficients(x1)
        # c2 V'' = g reads V'' = a1^2 sin(pi x1)/(a1^2 + a2^2) at x2~ = 0.5
        assert g / c2 == pytest.approx(
            a1**2 * math.sin(math.pi * x1) / (a1**2 + a2**2), rel=1e-15
        )

    def test_zero_state_zero_source(self, params_k1, table_k1):
        sp = SliceProblem(x2_tilde=0.0, params=params_k1, table=table_k1)
        coefficients = first_order_system(sp)
        g, _, c2 = coefficients(0.5)
        assert g / c2 == pytest.approx(0.0, abs=1e-15)

    def test_algebraic_rederivation_at_random_states(self, params_k4, table_k4):
        # oracle: the chain rule in z.  W' = (g - c1 W)/c2 from the returned
        # arrays gives V' = W and V'' = W', so U' = V'/q and U'' = (V'' -
        # q' V'/q)/q^2, which must satisfy (q^2 + S^2) U'' + (q' + T) U' = f
        rng = np.random.default_rng(21)
        sp = SliceProblem(x2_tilde=0.35, params=params_k4, table=table_k4)
        a1, a2 = params_k4.alpha_float[:2]
        S, T = (a2 * psi_derivative(table_k4, order, 0.35) for order in (1, 2))
        coefficients = first_order_system(sp)
        for _ in range(20):
            x1 = rng.uniform(0.0, 1.0)
            w = rng.standard_normal()
            g, c1, c2 = coefficients(x1)
            dw = (g - c1 * w) / c2
            q, dq = (a1 * psi_derivative(table_k4, order, x1) for order in (1, 2))
            terms = ((q**2 + S**2) * dw / q**2, -(q**2 + S**2) * dq * w / q**3, (dq + T) * w / q)
            scale = max(abs(t) for t in terms) + 1.0
            # residual measured against the largest term: the depth-4
            # coefficients are huge and cancel, so f itself is a poor scale
            assert abs(sum(terms) - sp.rhs(x1, 0.35)) <= 1e-12 * scale

    def test_evaluated_once_per_solve_and_residual(self, params_k1, table_k1, monkeypatch):
        calls = []

        def counting(coeffs):
            coefficients = first_order_system(coeffs)

            def counted(x1):
                calls.append(len(x1))
                return coefficients(x1)

            return counted

        monkeypatch.setattr(reduction, "first_order_system", counting)
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        sol, problem = solve_slice(sp, n_nodes=101)
        assert sol.converged and ode_residual(sol, problem) <= 1e-10
        assert calls == [101]


class TestBoundaryConditions:
    def test_identity_table_brackets(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        left, right = boundary_conditions(sp)
        expected = a1 + a2**2 / a1
        assert left == pytest.approx(expected, rel=1e-9)
        assert right == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("k, x2", [(1, 0.5), (2, 0.3), (4, 0.25), (4, 0.77)])
    def test_equal_per_end_scalar_formula(self, k, x2):
        params = compute_constants(2, 10, 8, k=k)
        sp = SliceProblem(x2_tilde=x2, params=params, table=build_psi(params))
        a1, a2 = params.alpha_float[:2]
        p1_x2 = psi_derivative(sp.table, 1, x2)
        p2_x2 = psi_derivative(sp.table, 2, x2)
        expected = []
        for x1_end in (0.0, 1.0):
            d1 = psi_derivative(sp.table, 1, x1_end)
            d2 = psi_derivative(sp.table, 2, x1_end)
            expected.append(
                (a2**2 * p1_x2**2 * d2 + a1 * a2 * d1**2 * p2_x2) / (a1**2 * d1**3)
                + a1 * d1
                + a2**2 * p1_x2**2 / (a1 * d1)
            )
        brackets = boundary_conditions(sp)
        assert all(type(b) is float for b in brackets)
        assert brackets == tuple(expected)

    def test_k4_brackets_nonzero(self, params_k4, table_k4):
        sp = SliceProblem(x2_tilde=0.25, params=params_k4, table=table_k4)
        left, right = boundary_conditions(sp)
        assert abs(left) > 1e-12
        assert abs(right) > 1e-12

    def test_computed_once_per_slice(self, params_k1, table_k1, monkeypatch):
        calls = []

        def counting(sp):
            calls.append(sp.x2_tilde)
            return boundary_conditions(sp)

        monkeypatch.setattr(reduction, "boundary_conditions", counting)
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        sol, _ = solve_slice(sp, n_nodes=101)
        report = compare_slice(sol, sp)
        assert calls == [0.5]
        assert (report.bracket_left, report.bracket_right) == boundary_conditions(sp)

    def test_degenerate_end_raises_before_the_solve(self, params_k1, table_k1, monkeypatch):
        def degenerate(sp):
            raise DegenerateBoundaryError("left endpoint bracket is 0")

        def no_solve(*args, **kwargs):
            raise AssertionError("a slice with a vacuous end was solved")

        monkeypatch.setattr(reduction, "boundary_conditions", degenerate)
        monkeypatch.setattr(reduction, "newton_solve", no_solve)
        sp = SliceProblem(x2_tilde=0.5, params=params_k1, table=table_k1)
        with pytest.raises(DegenerateBoundaryError):
            solve_slice(sp, n_nodes=101)


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
            solutions[x2] = sol
        x1_nodes = np.linspace(0.0, 1.0, 9)
        field = reconstruct_field(solutions, x1_nodes, rows)
        assert np.all(np.abs(field.values[0, :]) <= 1e-10)
        assert np.all(np.abs(field.values[-1, :]) <= 1e-10)
        assert np.all(field.values[:, 0] == 0.0)
        # roundtrip: interior values equal direct lookups on the slice's x1 mesh
        sol = solutions[float(rows[2])]
        direct = np.interp(x1_nodes, np.linspace(0.0, 1.0, 201), sol.U)
        assert np.array_equal(field.values[:, 2], direct)

    def test_psi_at_x2_once_per_slice(self, tmp_path, monkeypatch):
        # psi at a row's x2 comes from the slice's one jet there (one scalar
        # evaluation); bounds and reconstruct_field reuse it
        scalar = []

        def counting(table, x):
            if np.ndim(x) == 0:
                scalar.append(float(x))
            return psi_eval(table, x)

        for module in (inner, reduction):
            monkeypatch.setattr(module, "psi_eval", counting)
        assert cli.main(["sweep", "--x2-grid", "3", "--mesh", "101", "--out", str(tmp_path)]) == 0
        assert len(scalar) == 3

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


def manufactured_rhs(sp, dV, d2V):
    """The source f* = c2 V*'' + c1 V*' of the slice ODE in x1 for a given
    V*(x1), with c2 = 1 + S^2/q^2 and c1 = T/q - S^2 q'/q^3 written out from
    psi jets: the chain-rule Laplacian of u* = U*(z) with U*(z(x1)) = V*(x1)."""
    a1, a2 = sp.params.alpha_float[:2]

    def rhs(x1, x2):
        _, p1, p2 = psi_jet(sp.table, x1)
        _, s1, s2 = psi_jet(sp.table, x2)
        q, dq, S, T = a1 * p1, a1 * p2, a2 * s1, a2 * s2
        return d2V(x1) * (1.0 + S**2 / q**2) + dV(x1) * (T / q - S**2 * dq / q**3)

    return rhs


class TestManufacturedSlice:
    """With the source built for a known V*(x1) from the x1 coefficients,
    the slice ODE c2 V'' + c1 V' = g is satisfied by V* itself, at every
    depth: the source and the coefficients read the same psi jets.  So the
    solve returns V*: exactly for a quadratic, whose W = V*' is linear and
    W' = (g - c1 W)/c2 = V*'' constant, which trapezoidal collocation
    integrates exactly, and to O(h^2) for a sine.  At k=2 the coefficients
    are continuous and smooth inside each of the 100 psi cells, and the
    meshes of 101, 201 and 401 nodes put a node on every cell end."""

    @staticmethod
    def relative_errors(params, table, x2, case):
        base = SliceProblem(x2_tilde=x2, params=params, table=table)
        V, dV, d2V = {
            "quadratic": (
                lambda x: x * (1.0 - x),
                lambda x: 1.0 - 2.0 * x,
                lambda x: np.full_like(x, -2.0),
            ),
            "sine": (
                lambda x: np.sin(np.pi * x),
                lambda x: np.pi * np.cos(np.pi * x),
                lambda x: -(np.pi**2) * np.sin(np.pi * x),
            ),
        }[case]
        sp = dataclasses.replace(base, rhs=manufactured_rhs(base, dV, d2V))
        errors = []
        for n_nodes in (101, 201, 401):
            sol, problem = solve_slice(sp, n_nodes=n_nodes)
            exact = V(problem.nodes)
            errors.append(np.max(np.abs(sol.U - exact)) / np.max(np.abs(exact)))
        return errors

    @pytest.mark.parametrize("x2", [0.3, 0.77])
    def test_quadratic_is_exact_at_k1(self, x2, params_k1, table_k1):
        errors = self.relative_errors(params_k1, table_k1, x2, "quadratic")
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("x2", [0.3, 0.77])
    def test_sine_converges_at_second_order_at_k1(self, x2, params_k1, table_k1):
        errors = self.relative_errors(params_k1, table_k1, x2, "sine")
        assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(errors, errors[1:]))

    @pytest.mark.parametrize("x2", [0.3, 0.77])
    def test_quadratic_is_exact_at_k2(self, x2, params_k2, table_k2):
        errors = self.relative_errors(params_k2, table_k2, x2, "quadratic")
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("x2", [0.3, 0.77])
    def test_sine_converges_at_second_order_at_k2(self, x2, params_k2, table_k2):
        errors = self.relative_errors(params_k2, table_k2, x2, "sine")
        assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(errors, errors[1:]))


class TestSolvedInX1:
    def test_nodes_are_z_of_the_x1_mesh(self, params_k2, table_k2):
        sp = SliceProblem(x2_tilde=0.3, params=params_k2, table=table_k2)
        sol, problem = solve_slice(sp, n_nodes=201)
        assert np.array_equal(problem.nodes, np.linspace(0.0, 1.0, 201))
        z = params_k2.alpha_float[0] * psi_eval(table_k2, problem.nodes) + sp.bounds[0]
        assert np.array_equal(sol.nodes, z)
        assert sol.nodes[0] == sp.bounds[0]
        assert sol.nodes[-1] == pytest.approx(sp.bounds[1], rel=1e-15)

    def test_slice_path_inverts_no_psi(self, params_k2, table_k2, tmp_path, monkeypatch):
        def no_inverse(table, y):
            raise AssertionError("psi inverted on the slice path")

        monkeypatch.setattr(reduction, "psi_inverse", no_inverse)
        rows = np.array([0.0, 0.3, 1.0])
        solutions = {}
        for x2 in map(float, rows):
            sp = SliceProblem(x2_tilde=x2, params=params_k2, table=table_k2)
            sol, _ = solve_slice(sp, n_nodes=201)
            compare_slice(sol, sp)
            solutions[x2] = sol
        reconstruct_field(solutions, np.linspace(0.0, 1.0, 9), rows)
        argv = ["sweep", "--k", "2", "--x2-grid", "3", "--mesh", "101", "--out", str(tmp_path)]
        assert cli.main(argv) == 0


class TestSelfConvergenceAtK2:
    """On the uniform x1 mesh the k=2 amplitude ratio settles as the mesh is
    refined fourfold.  No value is asserted: a k=2 value waits for an error
    estimate (ROADMAP item 4)."""

    @pytest.mark.parametrize("x2", [0.3, 0.77])
    def test_ratio_changes_shrink_at_least_fourfold(self, x2, params_k2, table_k2):
        sp = SliceProblem(x2_tilde=x2, params=params_k2, table=table_k2)
        ratios = [
            compare_slice(solve_slice(sp, n_nodes=n)[0], sp).amplitude_ratio
            for n in (1001, 4001, 16001, 64001)
        ]
        changes = np.abs(np.diff(ratios))
        assert np.all(4.0 * changes[1:] <= changes[:-1])


class TestChangeOfVariablesIdentity:
    @pytest.mark.parametrize("coeffs", checks.QUADRATURE_CUBICS)
    def test_cubic_transfer(self, coeffs, params_k1, table_k1):
        assert checks.quadrature_transfer_error(coeffs, params_k1, table_k1) <= 1e-10

    def test_one_inversion_per_transfer(self, monkeypatch, params_k1, table_k1):
        # x1 and dx1/dz on the 40 Gauss nodes come from one psi inversion
        calls = counting_psi_calls(monkeypatch)
        checks.quadrature_transfer_error(checks.QUADRATURE_CUBICS[0], params_k1, table_k1)
        assert [c for c in calls if c[0] == "psi_inverse"] == [("psi_inverse", 40)]
        assert ("psi_jet", 40) in calls

    @pytest.mark.parametrize("coeffs", checks.QUADRATURE_CUBICS)
    def test_gauss_legendre_matches_scipy_fixed_quad(self, coeffs, params_k1, table_k1):
        poly = np.polynomial.Polynomial(coeffs)
        x2 = checks.QUADRATURE_X2

        sp = SliceProblem(x2_tilde=x2, params=params_k1, table=table_k1)
        a1 = params_k1.alpha_float[0]

        def integrand(z):
            x1 = x1_of_z(z, sp)
            return poly(x1) / (a1 * psi_jet(table_k1, x1)[1])

        quad, _ = fixed_quad(integrand, *sp.bounds, n=40)
        expected = abs(poly.integ()(1.0) - poly.integ()(0.0) - quad)
        error = checks.quadrature_transfer_error(coeffs, params_k1, table_k1)
        assert error == pytest.approx(expected, rel=0.0, abs=1e-15)

    def test_gauss_legendre_rule_built_once(self):
        nodes, weights = checks._gauss_legendre_40()
        assert checks._gauss_legendre_40() is checks._gauss_legendre_40()
        assert nodes.shape == weights.shape == (40,)


class TestTrapezoid:
    """trapezoid_panels, summed or accumulated, reproduces scipy.integrate's
    trapezoid and cumulative_trapezoid bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_and_cumulative_sum_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        x = np.sort(rng.uniform(-1.0, 2.0, n))
        y = rng.standard_normal(n)
        panels = trapezoid_panels(y, np.diff(x))
        assert np.sum(panels) == trapezoid(y, x)
        cumulative = np.concatenate(([0.0], np.cumsum(panels)))
        assert np.array_equal(cumulative, cumulative_trapezoid(y, x, initial=0.0))

    @pytest.mark.parametrize("k, x2", [(1, 0.5), (2, 0.3), (4, 0.35)])
    def test_closed_form_and_l2_match_scipy(self, k, x2):
        params = compute_constants(2, 10, 8, k=k)
        table = build_psi(params)
        sp = SliceProblem(x2_tilde=x2, params=params, table=table)
        sol, problem = solve_slice(sp, n_nodes=101)
        z = sol.nodes
        fine = np.linspace(0.0, 1.0, 801)
        g, _, c2 = first_order_system(sp)(fine)
        w = cumulative_trapezoid(g / c2, fine, initial=0.0)
        v = cumulative_trapezoid(w, fine, initial=0.0)
        v -= fine * v[-1]
        z_fine = params.alpha_float[0] * psi_eval(table, fine) + sp.bounds[0]
        u_closed = np.interp(z, z_fine, v)
        assert np.array_equal(reduced_closed_form(sp, z), u_closed)
        report = compare_slice(sol, sp)
        u_analytic = analytic_solution(problem.nodes, x2)
        l2_closed = float(np.sqrt(trapezoid((sol.U - u_closed) ** 2, z)))
        l2_analytic = float(np.sqrt(trapezoid((sol.U - u_analytic) ** 2, z)))
        assert report.l2_vs_closed_form == l2_closed
        assert report.l2_vs_analytic == l2_analytic
