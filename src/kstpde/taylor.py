"""Taylor-expanded superposition representation.

Aggregates psi derivatives into Bell-polynomial arguments and evaluates
the truncated series over outer functions, plus the untruncated shifted
form used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .combinatorics import bell_polynomial
from .inner import KstParams, PsiTable, psi_eval, psi_jet, z_map

__all__ = [
    "OuterFunctionSet",
    "bell_tilde",
    "taylor_kst_eval",
    "shifted_exact_eval",
]


@dataclass(frozen=True)
class OuterFunctionSet:
    """2n+1 univariate outer functions with derivatives.

    ``derivatives[q]`` is a callable (order, z) -> d^order Phi_q / dz^order.
    """

    derivatives: tuple[Callable[[int, float], float], ...]

    def __len__(self):
        return len(self.derivatives)

    def eval(self, q: int, order: int, z: float) -> float:
        return self.derivatives[q](order, z)

    @classmethod
    def from_polynomials(cls, coeff_lists: Sequence[Sequence[float]]) -> "OuterFunctionSet":
        """Build from polynomial coefficient lists (ascending order)."""
        polys = [np.polynomial.Polynomial(c) for c in coeff_lists]

        def make(p):
            cache = {0: p}

            def d(order, z):
                if order not in cache:
                    cache[order] = p.deriv(order)
                return cache[order](z)

            return d

        return cls(derivatives=tuple(make(p) for p in polys))


def bell_tilde(
    m: int,
    k: int,
    x: Sequence[float],
    table: PsiTable,
    params: KstParams,
) -> float:
    """q-independent Bell aggregate over psi derivatives.

    Evaluates B_{m,k}(A_1, ..., A_{m-k+1}) with
    A_i = sum_p alpha_p * psi^(i)(x_p).  Derivative orders beyond psi_jet's
    (2) are rejected.
    """
    if len(x) != params.n:
        raise ValueError(f"x must have length n={params.n}, got {len(x)}")
    if m == 0 and k == 0:
        return 1.0
    length = m - k + 1
    if length > 2:
        raise ValueError(
            f"B~_{{{m},{k}}} needs psi derivatives to order {length}; "
            "difference derivatives are supported up to order 2"
        )
    alpha = params.alpha_float
    # length < 1 means k > m, which bell_polynomial rejects
    jets = [psi_jet(table, x_p) for x_p in x] if length >= 1 else []
    args = [
        sum(a_p * jet[i] for a_p, jet in zip(alpha, jets)) for i in range(1, length + 1)
    ]
    return bell_polynomial(m, k, args)


def taylor_kst_eval(
    outer: OuterFunctionSet,
    x: Sequence[float],
    M: int,
    table: PsiTable,
    params: KstParams,
    a: float | None = None,
) -> float:
    """Truncated series sum over m <= M, k <= m and the 2n+1 outer functions.

    Returns sum_m sum_k B~_{m,k}(x) sum_q (a^m q^m / m!) Phi_q^(k)(z)
    with z the aggregate map of x and a the shift, params.a unless given.
    At M = 0 this is exactly sum_q Phi_q(z).
    """
    if M < 0:
        raise ValueError(f"truncation order M must be >= 0, got {M}")
    z = z_map(params, table, x)
    a = float(params.a) if a is None else a
    total = 0.0
    for m in range(M + 1):
        a_m = a**m / math.factorial(m)
        for k in range(m + 1):
            if k == 0 and m > 0:
                continue  # B_{m,0} vanishes for m > 0
            bt = bell_tilde(m, k, x, table, params)
            if bt == 0.0:
                continue
            q_sum = sum(
                (q**m) * a_m * outer.eval(q, k, z) for q in range(len(outer))
            )
            total += bt * q_sum
    return total


def shifted_exact_eval(
    outer: OuterFunctionSet,
    x: Sequence[float],
    a: float,
    table: PsiTable,
    params: KstParams,
) -> float:
    """Untruncated form sum_q Phi_q(sum_p alpha_p psi(x_p + a q))."""
    if len(x) != params.n:
        raise ValueError(f"x must have length n={params.n}, got {len(x)}")
    alpha = params.alpha_float
    total = 0.0
    for q in range(len(outer)):
        zq = sum(a_p * psi_eval(table, x_p + a * q) for a_p, x_p in zip(alpha, x))
        total += outer.eval(q, 0, zq)
    return total
