"""The benchmark's tracer and counters wrap kstpde functions by module and name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kstpde import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SWEEP = ["sweep", "--x2-grid", "5", "--mesh", "51"]


def test_every_traced_function_resolves(tracing):
    hooks = [(module, func) for _, module, func in tracing.SPANS] + [
        ("kstpde.reduction", "first_order_system"),
        ("kstpde.bvp", "newton_solve"),
        ("kstpde.inner", "build_psi"),
    ]
    for module, func in hooks:
        assert callable(getattr(importlib.import_module(module), func, None)), f"{module}.{func}"


def test_counters_see_every_slice(tracing, tmp_path):
    counters = tracing.Counters()
    try:
        assert cli.main(SWEEP + ["--out", str(tmp_path)]) == 0
    finally:
        counters.close()
    assert (counters.slices, counters.converged, counters.unknowns) == (5, 5, 510)


def test_tracer_records_one_coefficient_span_per_slice(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            assert cli.main(SWEEP + ["--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals[tracing.RHS_SPAN]["calls"] == 5
    assert totals["bvp.newton_solve"]["calls"] == 5
