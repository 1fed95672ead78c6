"""Variational verifier for the reduced Poisson problem.

Evaluates the second-order functional whose extremals the 2-D field
should realize, by trapezoidal quadrature with central-difference
derivatives, and measures the first variation in given directions.  Both
source-sign conventions are measured because differentiating the printed
functional yields the Laplacian with the opposite sign to the stated
PDE; the verifier reports which convention the analytic solution
extremizes instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reduction import Field2D, default_source, trapezoid_panels

__all__ = [
    "functional_value",
    "first_variation",
    "find_sign_convention",
    "laplacian_residual",
    "SignFinding",
]


def _d1(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    return np.gradient(u, h, axis=axis, edge_order=2)


def _d2(u: np.ndarray, h: float, axis: int) -> np.ndarray:
    u_ = np.moveaxis(u, axis, 0)
    out = np.empty_like(u_)
    out[1:-1] = (u_[2:] - 2.0 * u_[1:-1] + u_[:-2]) / h**2
    out[0] = (2.0 * u_[0] - 5.0 * u_[1] + 4.0 * u_[2] - u_[3]) / h**2
    out[-1] = (2.0 * u_[-1] - 5.0 * u_[-2] + 4.0 * u_[-3] - u_[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def _integrate_2d(values: np.ndarray, h1: float, h2: float) -> float:
    """Trapezoid rule over x2 (the last axis), then over x1."""
    rows = np.sum(trapezoid_panels(values, h2), axis=-1)
    return float(np.sum(trapezoid_panels(rows, h1)))


def functional_value(field: Field2D, source_sign: float = -1.0) -> float:
    """Quadrature of the second-order integrand over the unit square.

    integrand = -u_x1^2 - u_x2^2 + source_sign*2*f*u - 2*u_x1x1*u - 2*u_x2x2*u

    ``source_sign=-1`` is the printed form; ``+1`` is the flipped-source
    convention.
    """
    u = field.values
    h1 = field.x1[1] - field.x1[0]
    h2 = field.x2[1] - field.x2[0]
    X1, X2 = np.meshgrid(field.x1, field.x2, indexing="ij")
    f = default_source(X1, X2)
    integrand = (
        -_d1(u, h1, 0) ** 2
        - _d1(u, h2, 1) ** 2
        + source_sign * 2.0 * f * u
        - 2.0 * _d2(u, h1, 0) * u
        - 2.0 * _d2(u, h2, 1) * u
    )
    return _integrate_2d(integrand, h1, h2)


def first_variation(
    field: Field2D, direction: Field2D, h: float, source_sign: float = -1.0
) -> float:
    """Central-difference directional derivative of the functional.

    (Xi[u + h*delta] - Xi[u - h*delta]) / (2h) for the perturbation
    ``direction``, which must live on the same mesh.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    if (
        direction.values.shape != field.values.shape
        or not np.array_equal(direction.x1, field.x1)
        or not np.array_equal(direction.x2, field.x2)
    ):
        raise ValueError("direction mesh does not match field mesh")
    up = Field2D(field.x1, field.x2, field.values + h * direction.values)
    um = Field2D(field.x1, field.x2, field.values - h * direction.values)
    return (functional_value(up, source_sign) - functional_value(um, source_sign)) / (
        2.0 * h
    )


def direction_norm(direction: Field2D) -> float:
    """L2 norm of a perturbation over the unit square."""
    h1 = direction.x1[1] - direction.x1[0]
    h2 = direction.x2[1] - direction.x2[0]
    return float(np.sqrt(_integrate_2d(direction.values**2, h1, h2)))


def random_admissible_direction(nx: int, ny: int, rng, modes: int = 4) -> Field2D:
    """Random smooth test direction vanishing on the boundary.

    A few sine modes with Gaussian weights; admissible for the Dirichlet
    problem and smooth enough that quadrature error stays quadratic in
    the mesh step.
    """
    x1 = np.linspace(0.0, 1.0, nx)
    x2 = np.linspace(0.0, 1.0, ny)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    values = np.zeros((nx, ny))
    for _ in range(modes):
        i, j = rng.integers(1, 5, size=2)
        values += rng.standard_normal() * np.sin(i * np.pi * X1) * np.sin(j * np.pi * X2)
    return Field2D(x1=x1, x2=x2, values=values)


@dataclass(frozen=True)
class SignFinding:
    """Measured first-variation magnitudes under both source conventions."""

    worst_ratio_printed: float
    worst_ratio_flipped: float
    n_directions: int
    tolerance: float

    @property
    def extremizing_convention(self) -> str | None:
        if self.worst_ratio_flipped <= self.tolerance:
            return "flipped"
        if self.worst_ratio_printed <= self.tolerance:
            return "printed"
        return None

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["extremizing_convention"] = self.extremizing_convention
        return d


def find_sign_convention(
    field: Field2D,
    n_directions: int = 10,
    h: float = 1e-5,
    tolerance: float = 1e-3,
    seed: int = 0,
) -> SignFinding:
    """Measure |first variation| / ||delta|| at ``field`` for random
    admissible directions under both conventions."""
    rng = np.random.default_rng(seed)
    nx, ny = len(field.x1), len(field.x2)
    worst = {-1.0: 0.0, +1.0: 0.0}
    for _ in range(n_directions):
        delta = random_admissible_direction(nx, ny, rng)
        norm = direction_norm(delta)
        for sign in (-1.0, +1.0):
            fv = first_variation(field, delta, h, source_sign=sign)
            worst[sign] = max(worst[sign], abs(fv) / norm)
    return SignFinding(
        worst_ratio_printed=worst[-1.0],
        worst_ratio_flipped=worst[+1.0],
        n_directions=n_directions,
        tolerance=tolerance,
    )


def laplacian_residual(u_fn, source_fn, points: np.ndarray, step: float = 1e-3):
    """|Delta u - f| and |Delta u + f| at sample points, five-point stencil."""
    x1, x2 = points[:, 0], points[:, 1]
    lap = (
        u_fn(x1 + step, x2) - 2.0 * u_fn(x1, x2) + u_fn(x1 - step, x2)
        + u_fn(x1, x2 + step) - 2.0 * u_fn(x1, x2) + u_fn(x1, x2 - step)
    ) / step**2
    f = source_fn(x1, x2)
    return np.abs(lap - f), np.abs(lap + f)
