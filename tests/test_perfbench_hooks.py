"""The benchmark's tracer and counters wrap kstpde functions by module and
name, and its output checks pass on the k=1 sweeps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kstpde import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


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


@pytest.mark.parametrize("workload", ["sweep_fine", "sweep_wide"])
def test_k1_sweep_passes_the_benchmark_output_checks(tmp_path, workload):
    # the benchmark's own checks, U samples against reference.json within its
    # u_abs_tol included: a k=1 drift fails here before it fails the benchmark
    checks = load("checks")
    reference = checks.load_reference()
    assert reference["u_samples"][workload]
    (argv,) = load("workloads").workload_argvs(workload, seed=1)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    problems, _, _ = checks.check_outputs(workload, tmp_path, reference)
    assert problems == []
