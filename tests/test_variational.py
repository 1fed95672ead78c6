"""Functional quadrature and first-variation sign finding."""

import numpy as np
import pytest
from scipy.integrate import trapezoid

from kstpde import variational
from kstpde.reduction import Field2D, analytic_solution, default_source
from kstpde.variational import (
    direction_norm,
    find_sign_convention,
    first_variation,
    functional_value,
    laplacian_residual,
    random_admissible_direction,
)


@pytest.fixture(scope="module")
def analytic_field():
    return Field2D.from_function(analytic_solution, 101, 101)


class TestFunctionalValue:
    def test_zero_field_is_zero(self):
        field = Field2D.from_function(lambda x1, x2: 0.0 * x1, 41, 41)
        assert functional_value(field) == 0.0
        assert functional_value(field, source_sign=+1.0) == 0.0

    def test_source_term_linear_in_sign(self):
        field = Field2D.from_function(lambda x1, x2: np.sin(np.pi * x1) * x2 * (1 - x2),
                                      61, 61)
        plus = functional_value(field, source_sign=+1.0)
        minus = functional_value(field, source_sign=-1.0)
        # difference is 4 * integral of f*u, independent of derivative terms
        X1, X2 = np.meshgrid(field.x1, field.x2, indexing="ij")
        f_u = default_source(X1, X2) * field.values
        h = field.x1[1] - field.x1[0]
        expected = 4.0 * trapezoid(trapezoid(f_u, dx=h, axis=1), dx=h)
        assert plus - minus == pytest.approx(expected, rel=1e-12)


class TestFirstVariation:
    def test_zero_direction_gives_zero(self, analytic_field):
        zero = Field2D(analytic_field.x1, analytic_field.x2,
                       np.zeros_like(analytic_field.values))
        assert first_variation(analytic_field, zero, h=1e-5) == 0.0

    def test_mismatched_mesh_rejected(self, analytic_field):
        other = Field2D.from_function(lambda x1, x2: 0.0 * x1, 51, 51)
        with pytest.raises(ValueError):
            first_variation(analytic_field, other, h=1e-5)

    def test_rejects_nonpositive_step(self, analytic_field):
        zero = Field2D(analytic_field.x1, analytic_field.x2,
                       np.zeros_like(analytic_field.values))
        with pytest.raises(ValueError):
            first_variation(analytic_field, zero, h=0.0)


class TestSignFinding:
    def test_analytic_solution_extremizes_flipped_convention(self, analytic_field):
        finding = find_sign_convention(analytic_field, n_directions=10)
        assert finding.extremizing_convention == "flipped"
        assert finding.worst_ratio_flipped <= 1e-3
        assert finding.worst_ratio_printed > 1e-3

    def test_non_extremal_field_matches_neither(self):
        # polynomial bubble: its Laplacian is far from +-f, and its sine
        # expansion overlaps every low direction mode
        field = Field2D.from_function(
            lambda x1, x2: x1 * (1.0 - x1) * x2 * (1.0 - x2), 101, 101
        )
        finding = find_sign_convention(field, n_directions=5)
        assert finding.extremizing_convention is None

    def test_directions_are_admissible_and_nonzero(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            delta = random_admissible_direction(33, 49, rng)
            assert np.allclose(delta.values[0, :], 0.0, atol=1e-12)
            assert np.allclose(delta.values[-1, :], 0.0, atol=1e-12)
            assert np.allclose(delta.values[:, 0], 0.0, atol=1e-12)
            assert np.allclose(delta.values[:, -1], 0.0, atol=1e-12)
            assert direction_norm(delta) > 0.0


class TestTrapezoidQuadrature:
    """The 2-D trapezoid rule reproduces scipy.integrate.trapezoid, applied
    over x2 and then over x1, bit for bit."""

    @pytest.mark.parametrize("nx, ny", [(7, 5), (33, 49), (101, 101)])
    def test_matches_scipy(self, nx, ny):
        rng = np.random.default_rng(nx * ny)
        values = rng.standard_normal((nx, ny))
        h1, h2 = 1.0 / (nx - 1), 1.0 / (ny - 1)
        expected = trapezoid(trapezoid(values, dx=h2, axis=1), dx=h1)
        assert variational._integrate_2d(values, h1, h2) == expected
        delta = random_admissible_direction(nx, ny, rng)
        expected = np.sqrt(trapezoid(trapezoid(delta.values**2, dx=h2, axis=1), dx=h1))
        assert direction_norm(delta) == expected


class TestLaplacianResidual:
    def test_analytic_solution_satisfies_poisson(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0.1, 0.9, size=(20, 2))
        res_minus, res_plus = laplacian_residual(
            analytic_solution, default_source, points
        )
        # Delta u = f for u = f / (-2 pi^2), so the minus branch vanishes
        assert np.max(res_minus) <= 1e-5
        assert np.min(res_plus) > 1e-2
