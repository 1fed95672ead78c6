"""The benchmark's tracer wraps kstpde functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = [(module, func) for _, module, func in tracing.SPANS] + [
        ("kstpde.reduction", "first_order_system"),
        ("kstpde.bvp", "newton_solve"),
        ("kstpde.inner", "build_psi"),
    ]
    for module, func in hooks:
        assert callable(getattr(importlib.import_module(module), func, None)), f"{module}.{func}"
