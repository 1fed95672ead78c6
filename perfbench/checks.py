"""Output checks run on every operation's artifact directory.

An operation whose outputs fail any of these checks counts as failed and
makes the run incorrect.  References were captured from the seed program
by ``make_reference.py`` and live in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# At k=1 psi' is identically 1 and the order-zero slice ODE gives an
# amplitude ratio 2 a1^2 / (a1^2 + a2^2) against the analytic restriction.
# a2 is the CLI's default alpha_2 series (n=2, gamma=10, 8 terms), whose
# r-th term is gamma^-(1 + n + ... + n^(r-1)) = 10^-(2^r - 1).
ALPHA2 = float(sum(Fraction(1, 10 ** (2**r - 1)) for r in range(1, 9)))
AMPLITUDE_LIMIT = 2.0 / (1.0 + ALPHA2**2)
# The measured gap is -3.2566 h^2 on every row; the band allows |gap| <= 4 h^2.
AMPLITUDE_BAND = 4.0

U_SAMPLES = 11  # evenly spaced mesh nodes per slice compared with the reference


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def read_slice_csv(path: Path) -> tuple[list[float], list[float]]:
    """The U and u_analytic_restriction columns of a slice CSV."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        iu, ia = header.index("U"), header.index("u_analytic_restriction")
        u, ua = [], []
        for row in rows:
            u.append(float(row[iu]))
            ua.append(float(row[ia]))
    return u, ua


def sample_u(u: list[float]) -> list[float]:
    n = len(u)
    return [u[round(i * (n - 1) / (U_SAMPLES - 1))] for i in range(U_SAMPLES)]


def check_outputs(workload: str, out_dir: Path, reference: dict) -> tuple[list[str], int, int]:
    """Check one operation's artifacts.

    Returns (problems, artifact count, artifact bytes); an empty problem
    list means every check passed.
    """
    problems: list[str] = []
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"], 0, 0
    manifest = json.loads(manifest_path.read_text())
    listed = manifest["artifacts"]
    on_disk = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    if set(listed) != on_disk:
        problems.append(f"manifest lists {sorted(listed)} but directory holds {sorted(on_disk)}")

    nbytes = 0
    for name, digest in listed.items():
        path = out_dir / name
        if not path.is_file():
            continue
        data = path.read_bytes()
        nbytes += len(data)
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            problems.append(f"{name}: checksum differs from manifest")
        if name == "psi_k5.csv" and actual != reference["psi_k5_sha256"]:
            problems.append("psi_k5.csv differs from the seed table")

    cfg = manifest["config"]
    k, tol, mesh = cfg["k"][0], cfg["tol"], cfg["mesh"]
    u_ref = reference["u_samples"].get(workload, {})
    for json_path in sorted(out_dir.glob("slice_*.json")):
        report = json.loads(json_path.read_text())
        name = json_path.name
        if report["converged"] is not True:
            problems.append(f"{name}: not converged")
        if not report["residual_inf"] <= tol:
            problems.append(f"{name}: residual_inf {report['residual_inf']:g} > tol {tol:g}")
        csv_name = json_path.with_suffix(".csv").name
        u, ua = read_slice_csv(out_dir / csv_name)
        if k == 1 and max(map(abs, ua)) > 1e-12:
            h = (report["z_max"] - report["z_min"]) / (mesh - 1)
            gap = report["amplitude_ratio"] - AMPLITUDE_LIMIT
            if not abs(gap) <= AMPLITUDE_BAND * h * h:
                problems.append(f"{name}: amplitude ratio gap {gap:g} outside +-{AMPLITUDE_BAND}h^2")
        if csv_name in u_ref:
            err = max(abs(a - b) for a, b in zip(sample_u(u), u_ref[csv_name]))
            if not err <= reference["u_abs_tol"]:
                problems.append(f"{csv_name}: U differs from the seed by {err:g}")
    if u_ref and not set(u_ref) <= on_disk:
        problems.append(f"slices missing: {sorted(set(u_ref) - on_disk)[:3]}")
    return problems, len(listed), nbytes
