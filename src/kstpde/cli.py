"""Command-line front end.

Subcommands: psi, constants, bell, taylor-check, solve, sweep, compare,
verify.  Every command writes its artifacts plus a manifest.json echoing
the resolved configuration and artifact checksums.  Exit codes: 0
success, 1 invariant/convergence failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import checks, combinatorics, variational
from .bvp import SingularMatrixError, export_solution_csv, ode_residual
from .inner import (
    FMT,
    MonotonicityError,
    build_psi,
    compute_constants,
    export_derivs_csv,
    export_psi_csv,
)
from .reduction import (
    DegenerateBoundaryError,
    Field2D,
    SingularJacobianError,
    SliceProblem,
    analytic_solution,
    compare_slice,
    export_field_csv,
    reconstruct_field,
    solve_slice,
    x1_of_z,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# typed numerical failures: reported on stderr with exit 1, never as a traceback
NUMERICAL_ERRORS = (
    SingularMatrixError,
    MonotonicityError,
    DegenerateBoundaryError,
    SingularJacobianError,
)

DEFAULTS = {
    "gamma": 10,
    "n": 2,
    "k": "1",
    "terms": 8,
    "mesh": 1001,
    "tol": 1e-10,
    "x2": "0.5",
    "x2_grid": 21,
    "out": "out",
    "format": "csv",
}


@dataclass
class RunConfig:
    gamma: int
    n: int
    k: list[int]
    terms: int
    mesh: int
    tol: float
    x2: list[float]
    x2_grid: int
    out: Path
    format: str


class UsageError(Exception):
    pass


def _load_config_file(path: str) -> dict:
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {line!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over defaults."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in DEFAULTS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val

    try:
        k_list = [int(v) for v in str(merged["k"]).split(",")]
        x2_list = [float(v) for v in str(merged["x2"]).split(",")]
        cfg = RunConfig(
            gamma=int(merged["gamma"]),
            n=int(merged["n"]),
            k=k_list,
            terms=int(merged["terms"]),
            mesh=int(merged["mesh"]),
            tol=float(merged["tol"]),
            x2=x2_list,
            x2_grid=int(merged["x2_grid"]),
            out=Path(merged["out"]),
            format=str(merged["format"]),
        )
    except ValueError as exc:
        raise UsageError(f"bad configuration value: {exc}") from exc
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"--format must be csv or json, got {cfg.format}")
    if cfg.gamma < 2 * cfg.n + 2:
        raise UsageError(f"gamma={cfg.gamma} violates gamma >= 2n+2 = {2 * cfg.n + 2}")
    if any(k < 1 for k in cfg.k):
        raise UsageError(f"depths must be >= 1, got {cfg.k}")
    if any(not 0.0 <= v <= 1.0 for v in cfg.x2):
        raise UsageError(f"x2 values must lie in [0, 1], got {cfg.x2}")
    if cfg.mesh < 3:
        raise UsageError(f"mesh must have at least 3 nodes, got {cfg.mesh}")
    return cfg


def write_manifest(cfg: RunConfig, artifacts: list[Path]) -> Path:
    checksums = {}
    for p in sorted(artifacts, key=str):
        checksums[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest = {"config": {**asdict(cfg), "out": str(cfg.out)}, "artifacts": checksums}
    path = cfg.out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _params_and_table(cfg: RunConfig, k: int):
    params = compute_constants(cfg.n, cfg.gamma, cfg.terms, k=k)
    return params, build_psi(params)


# --------------------------------------------------------------------------
# subcommands: each writes its artifacts under cfg.out and returns
# (artifacts, ok); main writes the manifest and maps ok to the exit code

CommandResult = tuple[list[Path], bool]


def _write_json(cfg: RunConfig, name: str, payload) -> Path:
    path = cfg.out / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def cmd_psi(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    artifacts = []
    for k in cfg.k:
        params, table = _params_and_table(cfg, k)
        p1 = cfg.out / f"psi_k{k}.csv"
        export_psi_csv(table, p1)
        xs = np.linspace(0.0, 1.0 - table.delta, min(cfg.gamma**k, 2001))
        p2 = cfg.out / f"psi_derivs_k{k}.csv"
        export_derivs_csv(table, xs, p2)
        artifacts += [p1, p2]
        increments = np.diff(table.values)
        print(
            f"k={k}: {len(table.values)} nodes, "
            f"min increment {increments.min():.3e}, "
            f"max increment {increments.max():.3e}"
        )
    return artifacts, True


def cmd_constants(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params = compute_constants(cfg.n, cfg.gamma, cfg.terms, k=cfg.k[0])
    payload = {
        "gamma": cfg.gamma,
        "n": cfg.n,
        "series_terms": cfg.terms,
        "a": f"{params.a.numerator}/{params.a.denominator}",
        "a_decimal": FMT % float(params.a),
        "alpha": [FMT % a for a in params.alpha_float],
    }
    rows = [("a", payload["a"])] + [
        (f"alpha_{p}", a) for p, a in enumerate(payload["alpha"], start=1)
    ]
    if cfg.format == "json":
        path = _write_json(cfg, "constants.json", payload)
    else:
        path = cfg.out / "constants.csv"
        path.write_text("name,value\n" + "".join(f"{name},{v}\n" for name, v in rows))
    for name, v in rows:
        print(f"{name} = {v}")
    return [path], True


def cmd_bell(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    path = cfg.out / "bell_partitions.csv"
    combinatorics.export_partitions_csv(args.max_m, path)
    return [path], True


def cmd_taylor_check(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    """Truncation-order study with cubic outer functions and identity table."""
    params, table = _params_and_table(cfg, 1)
    outer = checks.cubic_outer(7, 2 * cfg.n + 1)
    fits = {M: checks.taylor_order(outer, M, params, table) for M in (0, 1, 2)}
    orders = {f"M={M}": {"errors": errs, "order": order} for M, (errs, order) in fits.items()}
    report = {"a_values": list(checks.TAYLOR_SHIFTS), "orders": orders}
    path = _write_json(cfg, "taylor_check.json", report)
    print(json.dumps(orders, indent=2))
    return [path], all(order >= M + 0.5 for M, (_, order) in fits.items())


def _solve_one(cfg: RunConfig, params, table, x2: float):
    sp = SliceProblem(x2_tilde=x2, params=params, table=table)
    sol, problem = solve_slice(sp, n_nodes=cfg.mesh, tol=cfg.tol)
    return sp, sol, problem


def _slice_report(sp, sol, problem) -> dict:
    report = compare_slice(sol, sp).to_dict()
    report["residual_inf"] = ode_residual(sol, problem)
    return report


def _tag(x2: float) -> str:
    return ("%g" % x2).replace(".", "p")


def _write_slice(cfg: RunConfig, sp, sol, problem) -> list[Path]:
    x2 = sp.x2_tilde
    x1 = x1_of_z(sol.nodes, x2, sp.params, sp.table)
    csv_path = cfg.out / f"slice_{_tag(x2)}.csv"
    export_solution_csv(
        sol, csv_path, extra_cols={"u_analytic_restriction": analytic_solution(x1, x2)}
    )
    report = _slice_report(sp, sol, problem)
    report["residual_history"] = sol.residual_history
    return [csv_path, _write_json(cfg, f"slice_{_tag(x2)}.json", report)]


def cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, cfg.k[0])
    artifacts = []
    all_converged = True
    for x2 in cfg.x2:
        sp, sol, problem = _solve_one(cfg, params, table, x2)
        artifacts += _write_slice(cfg, sp, sol, problem)
        all_converged &= sol.converged
        if not sol.converged:
            print(f"slice x2={x2}: Newton did not converge", file=sys.stderr)
    return artifacts, all_converged


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, cfg.k[0])
    rows = np.linspace(0.0, 1.0, cfg.x2_grid)
    artifacts = []
    all_converged = True
    solutions = {}
    for x2 in map(float, rows):
        sp, sol, problem = _solve_one(cfg, params, table, x2)
        artifacts += _write_slice(cfg, sp, sol, problem)
        solutions[x2] = (sol, sp)
        all_converged &= sol.converged
    field = reconstruct_field(solutions, np.linspace(0.0, 1.0, cfg.x2_grid), rows)
    field_path = cfg.out / "field.csv"
    export_field_csv(field, field_path)
    return artifacts + [field_path], all_converged


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, cfg.k[0])
    artifacts = []
    all_converged = True
    for x2 in cfg.x2:
        sp, sol, problem = _solve_one(cfg, params, table, x2)
        report = _slice_report(sp, sol, problem)
        artifacts.append(_write_json(cfg, f"compare_{_tag(x2)}.json", report))
        print(json.dumps(report, indent=2))
        all_converged &= sol.converged
    return artifacts, all_converged


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    """Run the invariant oracles of kstpde.checks; a failed check sets exit 1.

    The sign finding and the coincidence ratio are measured findings: they
    always pass and only report.
    """
    params, table = _params_and_table(cfg, 1)
    a_ok, alpha_ok = checks.constants(params)
    monotone, nested, in_range = checks.psi_invariants(cfg.n, cfg.gamma, cfg.terms)
    bell_ok, bell = checks.bell_numbers(8)
    field = Field2D.from_function(analytic_solution, 101, 101)
    lap_ok, lap_max = checks.analytic_laplacian_residual(seed=5)
    sp = SliceProblem(x2_tilde=0.5, params=params, table=table)
    sol, _ = solve_slice(sp, n_nodes=501, tol=cfg.tol)
    results = {
        "constants_a_exact": (a_ok, {"a": f"{params.a.numerator}/{params.a.denominator}"}),
        "constants_alpha_decreasing": (alpha_ok, {"alpha": [FMT % a for a in params.alpha_float]}),
        "psi_monotone_k1_to_k4": (monotone, None),
        "psi_nesting_consistent": (nested, None),
        "psi_range_unit_interval": (in_range, None),
        "partition_enumeration_complete_m6": (checks.partitions_complete(range(9)), None),
        "bell_numbers_b4_b5": (bell_ok, {"B_0..B_8": bell}),
        "faa_di_bruno_fd_oracle": (checks.faa_di_bruno_fd_oracle(4), None),
        "bell_homogeneity": (checks.bell_homogeneity(), None),
        "change_of_variables_quadrature": (checks.quadrature_transfer(params, table), None),
        "variational_sign_finding": (
            True,
            variational.find_sign_convention(field, n_directions=5, seed=3).to_dict(),
        ),
        "analytic_laplacian_residual": (lap_ok, {"max_residual_vs_plus_f": lap_max}),
        "slice_coincidence_ratio": (
            True,
            {"amplitude_ratio": compare_slice(sol, sp).amplitude_ratio},
        ),
    }
    report = {
        name: {"pass": bool(ok)} if info is None else {"pass": bool(ok), "info": info}
        for name, (ok, info) in results.items()
    }
    for name, (ok, _) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return [_write_json(cfg, "verify.json", report)], all(ok for ok, _ in results.values())


# name -> (help text, handler); build_parser and main both read this table
COMMANDS = {
    "psi": ("tabulate the inner function and its difference derivatives", cmd_psi),
    "constants": ("compute the shift constant and alpha coefficients", cmd_constants),
    "bell": ("emit the constrained-partition table", cmd_bell),
    "taylor-check": ("truncation-order verification of the Taylor form", cmd_taylor_check),
    "solve": ("solve reduced slice problems at fixed x2", cmd_solve),
    "sweep": ("solve a grid of slices and reconstruct the 2-D field", cmd_sweep),
    "compare": ("solve and compare a slice against its references", cmd_compare),
    "verify": ("run the invariant oracles of kstpde.checks", cmd_verify),
}


# --------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--gamma", type=int)
    sub.add_argument("--k", help="depth, or comma-separated list of depths")
    sub.add_argument("--n", type=int)
    sub.add_argument("--terms", type=int, help="alpha series truncation length")
    sub.add_argument("--x2", help="comma-separated fixed x2 values")
    sub.add_argument("--x2-grid", dest="x2_grid", type=int, help="sweep row count")
    sub.add_argument("--mesh", type=int, help="BVP mesh node count")
    sub.add_argument("--tol", type=float, help="Newton residual tolerance")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--format", choices=["csv", "json"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kstpde",
        description="Superposition-based reduction of the 2-D Poisson problem "
        "to one-dimensional boundary value problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "bell":
            sub.add_argument("--max-m", dest="max_m", type=int, default=6)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        _, handler = COMMANDS[args.command]
        artifacts, ok = handler(cfg, args)
        write_manifest(cfg, artifacts)
        return EXIT_OK if ok else EXIT_FAIL
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
