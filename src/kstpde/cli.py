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
import math
import platform
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, checks, combinatorics, variational
from .bvp import NonFiniteResidualError, SingularMatrixError, export_solution_csv
from .inner import (
    FMT,
    MonotonicityError,
    build_psi,
    build_psi_peak_bytes,
    compute_constants,
    export_derivs_csv,
    export_psi_csv,
)
from .reduction import (
    DegenerateBoundaryError,
    Field2D,
    SliceProblem,
    analytic_solution,
    compare_slice,
    export_field_csv,
    reconstruct_field,
    solve_slice,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

MAX_BUILD_BYTES = 4 * 2**30  # depths whose modelled psi build needs more are refused

# typed numerical failures: reported on stderr with exit 1, never as a traceback
NUMERICAL_ERRORS = (
    NonFiniteResidualError,
    SingularMatrixError,
    MonotonicityError,
    DegenerateBoundaryError,
)

# flag -> (default, argparse keywords), the one declaration of each flag; a
# command registers only the flags its COMMANDS entry names
FLAGS = {
    "config": (None, {"help": "key=value file of this command's flags"}),
    "gamma": (10, {"type": int}),
    "n": (2, {"type": int}),
    "terms": (8, {"type": int, "help": "alpha series truncation length"}),
    "k": ("1", {"help": "depth, or comma-separated list of depths"}),
    "mesh": (1001, {"type": int, "help": "BVP mesh node count"}),
    "tol": (1e-10, {"type": float, "help": "collocation residual tolerance"}),
    "x2": ("0.5", {"help": "comma-separated fixed x2 values"}),
    "x2-grid": (21, {"type": int, "help": "sweep row count"}),
    "format": ("csv", {"choices": ["csv", "json"]}),
    "max-m": (6, {"type": int}),
    "out": ("out", {"type": Path, "help": "output directory"}),
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


def _config_file_args(path: str) -> list[str]:
    """Each ``key = value`` line of the file as the argument ``--key=value``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read --config file: {exc}") from exc
    file_args = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"bad config line (expected key=value): {line!r}")
        key, _, val = line.partition("=")
        file_args.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return file_args


def _tag(x2: float) -> str:
    return ("%g" % x2).replace(".", "p")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The parsed flags over the FLAGS defaults, range-checked."""
    values = {name.replace("-", "_"): default for name, (default, _) in FLAGS.items()} | vars(args)
    try:
        values["k"] = [int(v) for v in values["k"].split(",")]
        values["x2"] = [float(v) for v in values["x2"].split(",")]
    except ValueError as exc:
        raise UsageError(f"bad configuration value: {exc}") from exc
    cfg = RunConfig(**{f.name: values[f.name] for f in fields(RunConfig)})
    if cfg.gamma < 2 * cfg.n + 2:
        raise UsageError(f"gamma={cfg.gamma} violates gamma >= 2n+2 = {2 * cfg.n + 2}")
    if any(k < 1 for k in cfg.k):
        raise UsageError(f"depths must be >= 1, got {cfg.k}")
    # only a given --k is limited: constants, for one, takes none and builds no table
    for k in cfg.k if "k" in vars(args) else ():
        need = build_psi_peak_bytes(cfg.gamma, cfg.n, k)
        if need > MAX_BUILD_BYTES:
            raise UsageError(
                f"--k {k}: building the psi table needs about {need / 2**30:.3g} GiB "
                f"(modelled), above the {MAX_BUILD_BYTES // 2**30} GiB limit"
            )
    if any(not 0.0 <= v <= 1.0 for v in cfg.x2):
        raise UsageError(f"x2 values must lie in [0, 1], got {cfg.x2}")
    for i, x2 in enumerate(cfg.x2):  # each slice's files are named by its tag
        clash = [v for v in cfg.x2[:i] if _tag(v) == _tag(x2)]
        if clash:
            raise UsageError(f"--x2 values {clash[0]} and {x2} share the artifact tag {_tag(x2)}")
    if cfg.mesh < 3:
        raise UsageError(f"mesh must have at least 3 nodes, got {cfg.mesh}")
    if not 0.0 < cfg.tol < np.inf:
        raise UsageError(f"--tol must be a finite number above 0, got {cfg.tol}")
    if cfg.x2_grid < 2:
        raise UsageError(f"x2-grid must have at least 2 rows, got {cfg.x2_grid}")
    return cfg


def _finite_or_null(value):
    """value with every float that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _strict_json(payload, **kwargs) -> str:
    """RFC 8259 JSON, which has no NaN or Infinity: a float that is not
    finite (the amplitude ratio of a row whose restriction is zero) is null."""
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False, **kwargs)


def write_manifest(cfg: RunConfig, artifacts: list[Path], error: Exception | None = None) -> Path:
    import scipy  # only for its version: the package root loads no subpackage

    checksums = {}
    for p in sorted(artifacts, key=str):
        checksums[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest = {
        "config": {**asdict(cfg), "out": str(cfg.out)},
        "artifacts": checksums,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "kstpde": __version__},
    }
    if error is not None:
        manifest["error"] = {"type": type(error).__name__, "message": str(error)}
    path = cfg.out / "manifest.json"
    path.write_text(_strict_json(manifest, sort_keys=True) + "\n")
    return path


def _params_and_table(cfg: RunConfig, k: int):
    params = compute_constants(cfg.n, cfg.gamma, cfg.terms, k=k)
    return params, build_psi(params)


def _one_depth(cfg: RunConfig) -> int:
    """The depth of solve, sweep and compare, which solve at one depth only."""
    if len(cfg.k) > 1:
        raise UsageError(f"this command solves at one depth, got --k {','.join(map(str, cfg.k))}")
    return cfg.k[0]


# --------------------------------------------------------------------------
# subcommands: each writes its artifacts under cfg.out and returns
# (artifacts, ok); main writes the manifest and maps ok to the exit code

CommandResult = tuple[list[Path], bool]


def _write_json(cfg: RunConfig, name: str, payload) -> Path:
    path = cfg.out / name
    path.write_text(_strict_json(payload) + "\n")
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
        # node increments from the exact slopes: the float64 node values
        # differ by zero where the exact increment is below their rounding
        print(
            f"k={k}: {len(table.values)} nodes, "
            f"min increment {table.slopes.min() / cfg.gamma**k:.3e}, "
            f"max increment {table.slopes.max() / cfg.gamma**k:.3e}"
        )
    return artifacts, True


def cmd_constants(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params = compute_constants(cfg.n, cfg.gamma, cfg.terms)
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
    if args.max_m < 0:
        raise UsageError(f"--max-m must be >= 0, got {args.max_m}")
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
    print(_strict_json(orders))
    return [path], all(order >= M + 0.5 for M, (_, order) in fits.items())


def _solve_one(cfg: RunConfig, params, table, x2: float):
    """Solve one slice; a slice left above tol is named on stderr."""
    sp = SliceProblem(x2_tilde=x2, params=params, table=table)
    sol, _ = solve_slice(sp, n_nodes=cfg.mesh, tol=cfg.tol)
    if not sol.converged:
        residual = sol.residual_after
        print(f"slice x2={x2}: residual {residual:.3g} above tol {cfg.tol:g}", file=sys.stderr)
    return sp, sol


def _write_slice(cfg: RunConfig, sp, sol) -> list[Path]:
    x2 = sp.x2_tilde
    compared = compare_slice(sol, sp)
    csv_path = cfg.out / f"slice_{_tag(x2)}.csv"
    export_solution_csv(sol, csv_path, extra_cols={"u_analytic_restriction": compared.u_analytic})
    return [csv_path, _write_json(cfg, f"slice_{_tag(x2)}.json", compared.to_dict())]


def cmd_solve(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, _one_depth(cfg))
    artifacts = []
    all_converged = True
    for x2 in cfg.x2:
        sp, sol = _solve_one(cfg, params, table, x2)
        artifacts += _write_slice(cfg, sp, sol)
        all_converged &= sol.converged
    return artifacts, all_converged


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, _one_depth(cfg))
    rows = np.linspace(0.0, 1.0, cfg.x2_grid)
    artifacts = []
    all_converged = True
    solutions = {}
    for x2 in map(float, rows):
        sp, sol = _solve_one(cfg, params, table, x2)
        artifacts += _write_slice(cfg, sp, sol)
        solutions[x2] = sol
        all_converged &= sol.converged
    field = reconstruct_field(solutions, np.linspace(0.0, 1.0, cfg.x2_grid), rows)
    field_path = cfg.out / "field.csv"
    export_field_csv(field, field_path)
    return artifacts + [field_path], all_converged


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> CommandResult:
    params, table = _params_and_table(cfg, _one_depth(cfg))
    artifacts = []
    all_converged = True
    for x2 in cfg.x2:
        sp, sol = _solve_one(cfg, params, table, x2)
        report = compare_slice(sol, sp).to_dict()
        artifacts.append(_write_json(cfg, f"compare_{_tag(x2)}.json", report))
        print(_strict_json(report))
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


SLICE_FLAGS = ("gamma", "n", "terms", "k", "mesh", "tol")

# name -> (help text, handler, flags besides --config and --out);
# build_parser and main both read this table
COMMANDS = {
    "psi": ("tabulate the inner function and its difference derivatives", cmd_psi,
            ("gamma", "n", "terms", "k")),
    "constants": ("compute the shift constant and alpha coefficients", cmd_constants,
                  ("gamma", "n", "terms", "format")),
    "bell": ("emit the constrained-partition table", cmd_bell, ("max-m",)),
    "taylor-check": ("truncation-order verification of the Taylor form", cmd_taylor_check,
                     ("gamma", "terms")),
    "solve": ("solve reduced slice problems at fixed x2", cmd_solve, SLICE_FLAGS + ("x2",)),
    "sweep": ("solve a grid of slices and reconstruct the 2-D field", cmd_sweep,
              SLICE_FLAGS + ("x2-grid",)),
    "compare": ("solve and compare a slice against its references", cmd_compare,
                SLICE_FLAGS + ("x2",)),
    "verify": ("run the invariant oracles of kstpde.checks", cmd_verify,
               ("gamma", "n", "terms", "tol")),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, holding only the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="kstpde",
        description="Superposition-based reduction of the 2-D Poisson problem "
        "to one-dimensional boundary value problems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in ("config", *flags, "out"):
            default, keywords = FLAGS[flag]
            sub.add_argument(f"--{flag}", default=default, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file flags go before the command line's own, which win by argparse's last-wins rule
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_file_args(args.config) + argv[at:])
        cfg = resolve_config(args)
        cfg.out.mkdir(parents=True, exist_ok=True)
        _, handler, _ = COMMANDS[args.command]
        artifacts, ok = handler(cfg, args)
        write_manifest(cfg, artifacts)
        return EXIT_OK if ok else EXIT_FAIL
    except NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        write_manifest(cfg, [], error=exc)  # raised by a handler, so cfg.out exists
        return EXIT_FAIL
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
