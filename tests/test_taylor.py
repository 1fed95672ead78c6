"""Truncated series evaluation and its convergence order."""

import pytest

from kstpde import checks
from kstpde.inner import psi_derivative, z_map
from kstpde.taylor import OuterFunctionSet, bell_tilde, taylor_kst_eval


@pytest.fixture(scope="module")
def cubic_outer():
    return checks.cubic_outer(13, 5)


class TestBellTilde:
    def test_empty_product(self, params_k1, table_k1):
        assert bell_tilde(0, 0, (0.3, 0.4), table_k1, params_k1) == 1.0

    def test_first_order_aggregate(self, params_k1, table_k1):
        a1, a2 = params_k1.alpha_float
        x = (0.25, 0.65)
        expected = a1 * psi_derivative(table_k1, 1, x[0]) + a2 * psi_derivative(
            table_k1, 1, x[1]
        )
        assert bell_tilde(1, 1, x, table_k1, params_k1) == pytest.approx(expected)

    def test_second_derivative_aggregate_vanishes_on_identity(
        self, params_k1, table_k1
    ):
        # B_{2,1}(a_2) = a_2 and the identity table has zero second difference
        assert bell_tilde(2, 1, (0.2, 0.3), table_k1, params_k1) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_rejects_unsupported_derivative_order(self, params_k1, table_k1):
        # B~_{m,k} needs psi derivatives to order m - k + 1, and psi_jet stops at 2
        for m in (3, 5):
            with pytest.raises(ValueError):
                bell_tilde(m, 1, (0.2, 0.3), table_k1, params_k1)


class TestTaylorEval:
    def test_m0_is_plain_outer_sum(self, cubic_outer, params_k1, table_k1):
        x = (0.3, 0.8)
        z = z_map(params_k1, table_k1, x)
        expected = sum(cubic_outer.eval(q, 0, z) for q in range(5))
        got = taylor_kst_eval(cubic_outer, x, 0, table_k1, params_k1)
        assert got == expected  # exact: no Taylor machinery may perturb M=0

    def test_zero_outer_functions(self, params_k1, table_k1):
        zero = OuterFunctionSet.from_polynomials([[0.0]] * 5)
        for M in (0, 2):
            assert taylor_kst_eval(zero, (0.4, 0.6), M, table_k1, params_k1) == 0.0

    def test_a_override_zero_collapses_to_m0(self, cubic_outer, params_k1, table_k1):
        x = (0.45, 0.2)
        base = taylor_kst_eval(cubic_outer, x, 0, table_k1, params_k1)
        for M in (1, 2):
            got = taylor_kst_eval(cubic_outer, x, M, table_k1, params_k1, a=0.0)
            assert got == pytest.approx(base, rel=1e-14)

    @pytest.mark.parametrize("M", [0, 1, 2])
    def test_truncation_order(self, M, cubic_outer, params_k1, table_k1):
        _, order = checks.taylor_order(cubic_outer, M, params_k1, table_k1)
        assert order >= M + 0.5

    def test_rejects_negative_truncation(self, cubic_outer, params_k1, table_k1):
        with pytest.raises(ValueError, match="M must be >= 0"):
            taylor_kst_eval(cubic_outer, (0.3, 0.8), -1, table_k1, params_k1)
