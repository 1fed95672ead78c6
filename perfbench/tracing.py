"""Measurement hooks installed on the program from outside.

Both classes replace public kstpde functions at every name a caller
resolves, that is every attribute of a loaded ``kstpde`` module bound to
the function, so no file of the program changes.  ``Counters`` stays
installed for the whole run and only counts; ``Tracer`` is installed
around traced passes and records one span per call.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, defining module, function); spans sharing a name are one layer.
# Private helpers such as bvp._fd_jacobian and bvp._solve_linear are not
# wrapped; newton_solve's self time covers them.
SPANS = [
    ("bvp.newton_solve", "kstpde.bvp", "newton_solve"),
    ("bvp.ode_residual", "kstpde.bvp", "ode_residual"),
    ("bvp.export_solution_csv", "kstpde.bvp", "export_solution_csv"),
    ("reduction.solve_slice", "kstpde.reduction", "solve_slice"),
    ("reduction.boundary_conditions", "kstpde.reduction", "boundary_conditions"),
    ("reduction.compare_slice", "kstpde.reduction", "compare_slice"),
    ("reduction.reconstruct_field", "kstpde.reduction", "reconstruct_field"),
    ("reduction.export_field_csv", "kstpde.reduction", "export_field_csv"),
    ("inner.build_psi", "kstpde.inner", "build_psi"),
    ("inner.eval", "kstpde.inner", "psi_eval"),
    ("inner.eval", "kstpde.inner", "psi_derivative"),
    ("inner.eval", "kstpde.inner", "psi_inverse"),
    ("inner.export", "kstpde.inner", "export_psi_csv"),
    ("inner.export", "kstpde.inner", "export_derivs_csv"),
    ("combinatorics.bell_polynomial", "kstpde.combinatorics", "bell_polynomial"),
    ("combinatorics.enumerate_partitions", "kstpde.combinatorics", "enumerate_partitions"),
    ("combinatorics.faa_di_bruno", "kstpde.combinatorics", "faa_di_bruno"),
    ("taylor.taylor_kst_eval", "kstpde.taylor", "taylor_kst_eval"),
    ("taylor.shifted_exact_eval", "kstpde.taylor", "shifted_exact_eval"),
    ("variational.find_sign_convention", "kstpde.variational", "find_sign_convention"),
    ("variational.functional_value", "kstpde.variational", "functional_value"),
    ("variational.laplacian_residual", "kstpde.variational", "laplacian_residual"),
    ("cli.write_manifest", "kstpde.cli", "write_manifest"),
]
OP_SPAN = "cli.op"  # one root span per main(argv) call
RHS_SPAN = "reduction.rhs"  # calls of the callable first_order_system returns


def _rebind(old, new) -> list:
    """Bind ``new`` wherever a kstpde module binds ``old``; return the undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "kstpde" and not modname.startswith("kstpde."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def _restore(undo: list) -> None:
    for mod, attr, old in reversed(undo):
        setattr(mod, attr, old)


class Counters:
    """Counts slice solves at ``newton_solve`` and psi nodes at ``build_psi``."""

    def __init__(self):
        bvp = importlib.import_module("kstpde.bvp")
        inner = importlib.import_module("kstpde.inner")
        solve, build = bvp.newton_solve, inner.build_psi
        self.reset()

        @functools.wraps(solve)
        def newton_solve(problem, *args, **kwargs):
            self.slices += 1
            self.unknowns += 2 * problem.n_nodes
            sol = solve(problem, *args, **kwargs)
            self.converged += bool(sol.converged)
            self.iterations += sol.iterations
            return sol

        @functools.wraps(build)
        def build_psi(params):
            table = build(params)
            self.psi_nodes += len(table.grid)
            return table

        self._undo = _rebind(solve, newton_solve) + _rebind(build, build_psi)

    def reset(self) -> None:
        self.slices = self.converged = self.iterations = self.unknowns = self.psi_nodes = 0

    def close(self) -> None:
        _restore(self._undo)


class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.names = [OP_SPAN, RHS_SPAN] + sorted({name for name, _, _ in SPANS})
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        self._undo: list = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        name_id = self._name_id[span]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A layer calling into itself (psi_derivative's recursion, or
            # psi_derivative calling psi_eval) stays inside the outer span.
            if self._stack and self.name[self._stack[-1]] == name_id:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        for span, module, func in SPANS:
            fn = getattr(importlib.import_module(module), func)
            self._undo += _rebind(fn, self._wrap(span, fn))
        reduction = importlib.import_module("kstpde.reduction")
        make_rhs = reduction.first_order_system

        @functools.wraps(make_rhs)
        def first_order_system(coeffs):
            return self._wrap(RHS_SPAN, make_rhs(coeffs))

        self._undo += _rebind(make_rhs, first_order_system)

    def uninstall(self) -> None:
        _restore(self._undo)
        self._undo = []

    @contextmanager
    def operation(self):
        """Root span of one ``main(argv)`` call; later spans carry its id."""
        self._op_id += 1
        idx = self._open(self._name_id[OP_SPAN])
        try:
            yield
        finally:
            self._close(idx)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds and call count.

        Self time is a span's duration minus that of its direct children;
        spans run on one thread and nest, so children never overlap.
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        s = np.bincount(name, weights=dur, minlength=k)
        ss = np.bincount(name, weights=self_time, minlength=k)
        calls = np.bincount(name, minlength=k)
        return {
            n: {"s": float(s[i]), "self_s": float(ss[i]), "calls": float(calls[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            op=np.asarray(self.op),
        )
