"""Capture reference.json from the program in this checkout.

The committed reference was captured from the seed program; the checks
compare every later program against it.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from checks import REFERENCE_PATH, read_slice_csv, sample_u
from workloads import workload_argvs

ROOT = Path(__file__).resolve().parent.parent
# Sampled U agrees to 4e-13 with a solve at tol 1e-14; the tolerance is far
# below the O(h^2) discretisation change (~3e-6 relative) it must detect.
U_ABS_TOL = 1e-10


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kstpde.cli import main as cli_main

    reference = {"u_abs_tol": U_ABS_TOL, "u_samples": {}}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        for workload in ("sweep_fine", "sweep_wide"):
            out = Path(tmp) / workload
            (argv,) = workload_argvs(workload, 0)
            if cli_main(argv + ["--out", str(out)]) != 0:
                raise SystemExit(f"{workload} failed")
            reference["u_samples"][workload] = {
                p.name: sample_u(read_slice_csv(p)[0]) for p in sorted(out.glob("slice_*.csv"))
            }
        out = Path(tmp) / "psi"
        if cli_main(["psi", "--k", "5", "--out", str(out)]) != 0:
            raise SystemExit("psi --k 5 failed")
        reference["psi_k5_sha256"] = hashlib.sha256((out / "psi_k5.csv").read_bytes()).hexdigest()
    # one slice per line keeps the file reviewable
    samples = reference.pop("u_samples")
    text = json.dumps(reference, sort_keys=True)[:-1] + ', "u_samples": {\n'
    text += ",\n".join(
        f"{json.dumps(workload)}: {{\n"
        + ",\n".join(f"{json.dumps(name)}: {json.dumps(u)}" for name, u in slices.items())
        + "}"
        for workload, slices in samples.items()
    )
    REFERENCE_PATH.write_text(text + "}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
