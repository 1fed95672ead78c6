"""Benchmark of the kstpde pipeline through its public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_fine --seed 1 --seconds 20 --trace 0

Each pass of a workload (see workloads.py) calls ``kstpde.cli.main(argv)``
in this process once per argv, closed loop, with artifacts in a fresh
directory under ``.bench_out/`` that is checked (checks.py) and removed
after each call.  Passes repeat until ``--seconds`` have elapsed, after
one untimed warm-up pass.  With ``--trace 0`` the run reports the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
with the tracing overhead, from spans recorded by tracing.py.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread keeps the load to one busy thread.  On a shared 2-core
# machine, sweep_fine pass times spread 18% between runs with two BLAS
# threads and 6% with one.  Set before numpy loads; the setup_s launches
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import check_outputs, load_reference  # noqa: E402
from tracing import Counters, Tracer  # noqa: E402
from workloads import WORKLOADS, workload_argvs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 5  # sequential fresh-interpreter imports; setup_s is their median


@dataclass
class Op:
    elapsed: float
    failure: str | None  # None, "exit <code>", an exception type, or "check"
    problems: list[str]
    warnings: list[str]
    stderr: str
    artifacts: int = 0
    artifact_bytes: int = 0


@dataclass
class Pass:
    ops: list[Op]
    traced: bool
    counts: dict  # slice solves, converged ones, Newton iterations, unknowns, psi nodes

    @property
    def seconds(self) -> float:
        return sum(op.elapsed for op in self.ops)


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import kstpde.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import kstpde.cli"],
            env=env, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_op(main, argv, workload, reference, tracer) -> Op:
    out = Path(tempfile.mkdtemp(dir=OUT))
    stdout, stderr = io.StringIO(), io.StringIO()
    code, failure = None, None
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings(
            record=True
        ) as caught, (tracer.operation() if tracer else nullcontext()):
            warnings.simplefilter("always")
            t0 = perf_counter()
            try:
                code = main(argv + ["--out", str(out)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # counted as a failed operation, never fatal
                failure = type(exc).__name__
            elapsed = perf_counter() - t0
        if failure is None and code != 0:
            failure = f"exit {code}"
        problems, artifacts, nbytes = [], 0, 0
        if failure is None:
            try:
                problems, artifacts, nbytes = check_outputs(workload, out, reference)
            except Exception as exc:  # malformed output is a failed check
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                failure = "check"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Op(
        elapsed=elapsed,
        failure=failure,
        problems=problems,
        warnings=[w.category.__name__ for w in caught],
        stderr=stderr.getvalue(),
        artifacts=artifacts,
        artifact_bytes=nbytes,
    )


def run_pass(main, argvs, workload, reference, counters, tracer=None) -> Pass:
    gc.collect()
    counters.reset()
    if tracer:
        tracer.install()
    try:
        ops = [run_op(main, argv, workload, reference, tracer) for argv in argvs]
    finally:
        if tracer:
            tracer.uninstall()
    counts = {
        "slices": counters.slices,
        "converged": counters.converged,
        "iterations": counters.iterations,
        "unknowns": counters.unknowns,
        "psi_nodes": counters.psi_nodes,
    }
    return Pass(ops=ops, traced=tracer is not None, counts=counts)


def tail_percentile(values: list[float]) -> dict:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            v = float(np.percentile(values, p))
            return {"p": p, "value": v, "beyond": sum(x > v for x in values), "n": n}
    return {"p": None, "n": n}


def environment() -> dict:
    import kstpde
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = None
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kstpde": kstpde.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_threads": threads,
        "blas": blas,
        "machine": platform.machine(),
    }


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    timed = [p.seconds for p in passes]
    ops = [op for p in passes for op in p.ops]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(timed),
        "slices_per_s": statistics.median(p.counts["converged"] / p.seconds for p in passes),
        "ok_frac": sum(op.failure is None for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[Pass], tracer: Tracer, names: list[str]) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    totals = tracer.totals()

    def count(key):
        return sum(p.counts[key] for p in traced) / n

    slices = count("slices")
    special = {
        "bvp.newton.iterations": count("iterations"),
        "bvp.newton.converged_frac": count("converged") / slices if slices else 0.0,
        "bvp.unknowns": count("unknowns"),
        "inner.psi_nodes": count("psi_nodes"),
        "cli.artifacts": sum(op.artifacts for p in traced for op in p.ops) / n,
        "cli.artifact_bytes": sum(op.artifact_bytes for p in traced for op in p.ops) / n,
        "trace.pass_s": statistics.median(p.seconds for p in traced),
        "trace.overhead_s": statistics.median(p.seconds for p in traced)
        - statistics.median(p.seconds for p in untraced),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = totals[span][stat] / n
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kstpde" / "cli.py").is_file():
        print(f"error: no kstpde sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    reference = load_reference()
    argvs = workload_argvs(args.workload, args.seed)

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import kstpde.cli

    if Path(kstpde.cli.__file__).resolve().parent != (SRC / "kstpde").resolve():
        print(f"error: imported kstpde from {kstpde.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    counters = Counters()
    tracer = Tracer() if args.trace else None
    main_fn = kstpde.cli.main

    warmup = run_pass(main_fn, argvs, args.workload, reference, counters)
    passes: list[Pass] = []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(passes) < 2:
        traced = tracer if len(passes) % 2 == 1 else None
        passes.append(run_pass(main_fn, argvs, args.workload, reference, counters, traced))
    counters.close()

    if args.trace:
        metrics = per_layer(passes, tracer, names)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
    else:
        metrics = {k: v for k, v in end_to_end(passes, setup_s).items() if k in names}
        trace_path = None
    missing = set(names) - set(metrics)
    if missing:
        print(f"error: no measurement for {sorted(missing)}", file=sys.stderr)
        return 2

    all_ops = [op for p in [warmup] + passes for op in p.ops]
    failed = [op for op in all_ops if op.failure]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": argvs,
        "passes": len(passes),
        "pass_s_all": [round(p.seconds, 4) for p in passes],
        "pass_s_tail": tail_percentile([p.seconds for p in passes if not p.traced]),
        "failed_frac": len(failed) / len(all_ops),
        "failures": dict(Counter(op.failure for op in failed)),
        "problems": sorted({pr for op in all_ops for pr in op.problems})[:10],
        "warnings": dict(Counter(w for op in all_ops for w in op.warnings)),
        "stderr": sorted({line for op in all_ops for line in op.stderr.splitlines()})[:10],
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "env": environment(),
    }
    if args.trace:
        pass_s = metrics["trace.pass_s"]
        detail["share_of_traced_pass"] = {
            k: round(v / pass_s, 4)
            for k, v in metrics.items()
            if units[k] == "s" and not k.startswith("trace.")
        }
    print(json.dumps(detail))
    for name in names:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": not any(op.failure == "check" for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
