"""Partial Bell polynomials and higher-order chain-rule derivatives.

Partitions, as block-count tuples, are enumerated exactly in integer arithmetic;
the multinomial weights are computed as exact integers and converted to
float only at the final multiplication.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

__all__ = [
    "enumerate_partitions",
    "bell_polynomial",
    "faa_di_bruno",
    "export_partitions_csv",
]


def enumerate_partitions(m: int, k: int) -> list[tuple[int, ...]]:
    """All block-count tuples (j_1, ..., j_{m-k+1}) of the constrained
    partitions of m into k blocks: sum j = k and sum i*j_i = m.

    Recursive descent with pruning on both constraints; returned in
    lexicographic order of the j-vector.
    """
    if m < 0 or k < 0:
        raise ValueError(f"m and k must be non-negative, got m={m}, k={k}")
    if k > m:
        raise ValueError(f"k={k} exceeds m={m}: no partitions exist")
    length = m - k + 1
    out: list[tuple[int, ...]] = []

    def descend(pos: int, prefix: list[int], blocks_left: int, weight_left: int):
        if pos == length:
            if blocks_left == 0 and weight_left == 0:
                out.append(tuple(prefix))
            return
        i = pos + 1
        # remaining positions can absorb at most blocks_left * length weight
        for j_i in range(min(blocks_left, weight_left // i) + 1):
            rem_blocks = blocks_left - j_i
            rem_weight = weight_left - i * j_i
            # positions i+1..length have weights >= i+1; the cheapest way to
            # place rem_blocks blocks costs rem_blocks*(i+1) unless pos==length-1
            if pos < length - 1 and rem_weight < rem_blocks * (i + 1):
                continue
            if pos == length - 1 and (rem_blocks or rem_weight):
                continue
            prefix.append(j_i)
            descend(pos + 1, prefix, rem_blocks, rem_weight)
            prefix.pop()

    descend(0, [], k, m)
    out.sort()
    return out


def _partition_coefficient(m: int, j: tuple[int, ...]) -> int:
    """m! / (prod j_i! * prod (i!)^j_i), the number of set partitions
    with the given block-size multiplicities.  Exact integer."""
    num = math.factorial(m)
    den = 1
    for i, j_i in enumerate(j, start=1):
        den *= math.factorial(j_i) * math.factorial(i) ** j_i
    coeff, rem = divmod(num, den)
    assert rem == 0
    return coeff


def bell_polynomial(m: int, k: int, args: Sequence[float]) -> float:
    """Evaluate the partial Bell polynomial B_{m,k}(args_1, ..., args_{m-k+1})."""
    length = m - k + 1
    if len(args) < length:
        raise ValueError(
            f"B_{{{m},{k}}} needs at least {length} arguments, got {len(args)}"
        )
    total = 0.0
    for j in enumerate_partitions(m, k):
        term = float(_partition_coefficient(m, j))
        for i, j_i in enumerate(j, start=1):
            if j_i:
                term *= args[i - 1] ** j_i
        total += term
    return total


def faa_di_bruno(m: int, f_jet: Sequence[float], g_jet: Sequence[float]) -> float:
    """m-th derivative of f(g(x)) from jets of f and g.

    ``f_jet`` holds f^(0..m) evaluated at g(x) (length m+1); ``g_jet``
    holds g^(1..m) at x (length m).  Returns
    sum_{k=0}^{m} f^(k)(g(x)) * B_{m,k}(g', ..., g^(m-k+1)); the k=0 term
    contributes only when m = 0.
    """
    if len(f_jet) < m + 1:
        raise ValueError(f"f_jet must hold f^(0..{m}), got length {len(f_jet)}")
    if len(g_jet) < m:
        raise ValueError(f"g_jet must hold g^(1..{m}), got length {len(g_jet)}")
    if m == 0:
        return f_jet[0]
    total = 0.0
    for k in range(1, m + 1):  # B_{m,0} = 0 for m > 0
        total += f_jet[k] * bell_polynomial(m, k, g_jet)
    return total


def export_partitions_csv(max_m: int, path) -> None:
    """Emit rows m,k,partition,count for inspection."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "k", "partition", "count"])
        for m in range(max_m + 1):
            for k in range(m + 1):
                for j in enumerate_partitions(m, k):
                    w.writerow([m, k, " ".join(map(str, j)), _partition_coefficient(m, j)])
