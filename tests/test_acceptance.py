"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints a single PASS/FAIL line before asserting so the
scoreboard survives in the captured output either way.  Criterion 1's
17-digit check is expected to fail: the published decimal for alpha_2
equals the float64 rounding of a 3-term truncation of the series, while
any truncation of 4 or more terms (as required here) differs at the
15th decimal (0.10100010000000099 vs 0.10100010000000001).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from kstpde import checks
from kstpde.bvp import ode_residual
from kstpde.inner import FMT, build_psi, compute_constants
from kstpde.reduction import (
    Field2D,
    SliceProblem,
    analytic_solution,
    compare_slice,
    reduced_closed_form,
    solve_slice,
    x1_of_z,
)
from kstpde.variational import find_sign_convention


def report(number, label, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {label}")
    assert passed, f"criterion {number} ({label}) failed"


@pytest.fixture(scope="module")
def setup_k1():
    params = compute_constants(2, 10, series_terms=8, k=1)
    return params, build_psi(params)


class TestAcceptance:
    def test_01_constants(self):
        start = time.perf_counter()
        params = compute_constants(2, 10, series_terms=8)
        elapsed = time.perf_counter() - start
        a_ok = params.a == Fraction(1, 90)
        digits_ok = (FMT % float(params.alpha[1])) == "0.10100010000000001"
        time_ok = elapsed < 1e-3
        report(
            1,
            "a = 1/90 exact, alpha_2 printed digits, < 1 ms",
            a_ok and digits_ok and time_ok,
        )

    def test_02_psi_monotone_and_nested(self):
        start = time.perf_counter()
        mono, nested, _ = checks.psi_invariants(2, 10, 8)
        elapsed = time.perf_counter() - start
        report(2, "psi strictly increasing and nested, k=1..4, < 5 s",
               mono and nested and elapsed < 5.0)

    def test_03_combinatorics_oracles(self):
        start = time.perf_counter()
        enum_ok = checks.partitions_complete(range(9))
        bell_ok, _ = checks.bell_numbers(8)
        fdb_ok = checks.faa_di_bruno_fd_oracle(4)
        elapsed = time.perf_counter() - start
        report(3, "partition/Bell/composition oracles, < 10 s",
               enum_ok and bell_ok and fdb_ok and elapsed < 10.0)

    def test_04_homogeneity(self):
        report(4, "Bell scaling identity, 100 random cases, rel 1e-10",
               checks.bell_homogeneity())

    def test_05_taylor_order(self, setup_k1):
        params, table = setup_k1
        start = time.perf_counter()
        outer = checks.cubic_outer(13, 5)
        ok = all(
            checks.taylor_order(outer, M, params, table)[1] >= M + 0.5 for M in (0, 1, 2)
        )
        elapsed = time.perf_counter() - start
        report(5, "truncation order >= M+0.5 for M in {0,1,2}, < 5 s",
               ok and elapsed < 5.0)

    def test_06_slice_solve(self, setup_k1):
        params, table = setup_k1
        start = time.perf_counter()
        sp = SliceProblem(x2_tilde=0.5, params=params, table=table)
        sol, problem = solve_slice(sp, n_nodes=1001, tol=1e-10)
        elapsed = time.perf_counter() - start
        closed = reduced_closed_form(sp, sol.nodes)
        linf = float(np.max(np.abs(sol.U - closed)))
        report(
            6,
            "slice x2=0.5 N=1001: <= 3 iterations, residual <= 1e-8, "
            "closed form to 1e-6, < 2 s",
            sol.converged
            and sol.iterations <= 3
            and ode_residual(sol, problem) <= 1e-8
            and linf <= 1e-6
            and elapsed < 2.0,
        )

    def test_07_shape_agreement(self, setup_k1):
        params, table = setup_k1
        sp = SliceProblem(x2_tilde=0.5, params=params, table=table)
        sol, _ = solve_slice(sp, n_nodes=1001)
        rep = compare_slice(sol, sp)
        x1 = x1_of_z(sol.nodes, sp)
        u_an = analytic_solution(x1, 0.5)
        ends_ok = (
            abs(sol.U[0]) <= 1e-10
            and abs(sol.U[-1]) <= 1e-10
            and abs(u_an[0]) <= 1e-12
            and abs(u_an[-1]) <= 1e-12
        )
        # single interior extremum of each curve
        def single_extremum(u):
            s = np.sign(np.diff(u))
            changes = np.count_nonzero(np.diff(s[s != 0]))
            return changes == 1

        shape_ok = single_extremum(sol.U) and single_extremum(u_an)
        near_ok = abs(rep.extremum_z_numeric - rep.extremum_z_analytic) <= 0.01
        sign_ok = rep.amplitude_ratio > 0.0
        print(f"  measured amplitude ratio (numeric/analytic): {rep.amplitude_ratio:.6f}")
        report(7, "endpoint zeros, matching single extremum, shared sign",
               ends_ok and shape_ok and near_ok and sign_ok)

    def test_08_zero_source_slice(self, setup_k1):
        params, table = setup_k1
        sp = SliceProblem(x2_tilde=0.0, params=params, table=table)
        sol, _ = solve_slice(sp, n_nodes=1001)
        report(8, "x2=0 slice identically zero to 1e-12",
               float(np.max(np.abs(sol.U))) <= 1e-12)

    def test_09_variational(self):
        start = time.perf_counter()
        field = Field2D.from_function(analytic_solution, 101, 101)
        finding = find_sign_convention(field, n_directions=10)
        convention = finding.extremizing_convention
        print(f"  extremizing convention: {convention} "
              f"(printed ratio {finding.worst_ratio_printed:.3e}, "
              f"flipped ratio {finding.worst_ratio_flipped:.3e})")
        lap_ok, _ = checks.analytic_laplacian_residual(seed=9)
        elapsed = time.perf_counter() - start
        report(
            9,
            "first variation <= 1e-3 norm under one convention, "
            "Laplacian matches +-f to 1e-5, < 30 s",
            convention is not None and lap_ok and elapsed < 30.0,
        )

    def test_10_quadrature_transfer(self, setup_k1):
        params, table = setup_k1
        report(10, "change-of-variables quadrature exact to 1e-10 for cubics",
               checks.quadrature_transfer(params, table))
