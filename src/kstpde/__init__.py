"""Numerical superposition-theorem pipeline for reducing the 2-D Poisson
boundary value problem to one-dimensional ODE boundary value problems."""

from .bvp import BvpProblem, BvpSolution, newton_solve, ode_residual
from .combinatorics import bell_polynomial, enumerate_partitions, faa_di_bruno
from .inner import (
    GridD,
    KstParams,
    MonotonicityError,
    PsiTable,
    build_grid,
    build_psi,
    compute_constants,
    psi_derivative,
    psi_eval,
    psi_inverse,
    psi_jet,
    z_map,
)
from .reduction import (
    Field2D,
    SliceProblem,
    analytic_solution,
    boundary_conditions,
    compare_slice,
    first_order_system,
    reconstruct_field,
    solve_slice,
    x1_of_z,
)
from .taylor import OuterFunctionSet, bell_tilde, taylor_kst_eval
from .variational import find_sign_convention, first_variation, functional_value

__version__ = "0.1.0"
