"""Command-line interface: exit codes, artifacts, manifest, determinism."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import kstpde
from kstpde import bvp, cli, reduction
from kstpde.bvp import NonFiniteResidualError, SingularMatrixError, ode_residual
from kstpde.cli import main
from kstpde.inner import build_psi, compute_constants, psi_inverse
from kstpde.reduction import SliceProblem, compare_slice, solve_slice


def run(tmp_path, *argv):
    return main(list(argv) + ["--out", str(tmp_path / "out")])


def read_manifest(tmp_path):
    return json.loads((tmp_path / "out" / "manifest.json").read_text())


class TestConstants:
    def test_exit_and_artifact(self, tmp_path, capsys):
        assert run(tmp_path, "constants") == 0
        out = capsys.readouterr().out
        assert "a = 1/90" in out
        assert "alpha_1 = 1" in out
        assert (tmp_path / "out" / "constants.csv").exists()

    def test_json_format(self, tmp_path):
        assert run(tmp_path, "constants", "--format", "json") == 0
        payload = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert payload["a"] == "1/90"
        assert payload["alpha"][0] == "1"

    def test_small_gamma_is_usage_error(self, tmp_path):
        assert run(tmp_path, "constants", "--gamma", "3") == 2

    def test_bad_format_is_usage_error(self, tmp_path):
        # argparse rejects unknown choices before resolve_config runs
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "constants", "--format", "yaml")
        assert exc.value.code == 2


class TestPsi:
    def test_identity_table_rows(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "1") == 0
        with open(tmp_path / "out" / "psi_k1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            assert float(row["psi"]) == pytest.approx(float(row["d"]), abs=1e-15)

    def test_depth_list_and_monotone_scan(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "1,3") == 0
        with open(tmp_path / "out" / "psi_k3.csv") as fh:
            values = [float(r["psi"]) for r in csv.DictReader(fh)]
        assert len(values) == 1001
        assert all(a < b for a, b in zip(values, values[1:]))
        manifest = read_manifest(tmp_path)
        assert set(manifest["artifacts"]) == {
            "psi_k1.csv", "psi_derivs_k1.csv", "psi_k3.csv", "psi_derivs_k3.csv",
        }

    def test_k5_prints_exact_increments(self, tmp_path, capsys):
        # most float64 node values at depth 5 do not increase; the printed
        # increments come from the exact ones, the smallest 1e-31
        assert run(tmp_path, "psi", "--k", "5") == 0
        line = "k=5: 100001 nodes, min increment 1.000e-31, max increment 5.750e-03"
        assert line in capsys.readouterr().out.splitlines()

    def test_manifest_checksums_match_files(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "2") == 0
        manifest = read_manifest(tmp_path)
        for name, digest in manifest["artifacts"].items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_manifest_records_versions(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "1") == 0
        assert read_manifest(tmp_path)["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "kstpde": kstpde.__version__,
        }


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--k", "2"],
            ["sweep", "--x2-grid", "5", "--mesh", "51"],
            ["solve", "--k", "2", "--x2", "0.3,0.77", "--mesh", "201"],
            ["verify"],
            ["taylor-check"],
            ["bell", "--max-m", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rerun_is_byte_identical(self, tmp_path, argv):
        # the second run in the same process sees no state the first left
        runs = []
        for _ in range(2):
            assert run(tmp_path, *argv) == 0
            runs.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
            shutil.rmtree(tmp_path / "out")
        assert runs[0] == runs[1]


class TestSolve:
    def test_default_slice(self, tmp_path):
        assert run(tmp_path, "solve", "--mesh", "501") == 0
        report = json.loads((tmp_path / "out" / "slice_0p5.json").read_text())
        assert report["converged"] is True
        assert report["iterations"] <= 3
        assert report["residual_inf"] <= 1e-8
        assert report["linf_vs_closed_form"] <= 1e-6
        with open(tmp_path / "out" / "slice_0p5.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["z", "U", "W", "u_analytic_restriction"]

    def test_zero_row_slice(self, tmp_path):
        assert run(tmp_path, "solve", "--x2", "0", "--mesh", "101") == 0
        with open(tmp_path / "out" / "slice_0.csv") as fh:
            u_vals = [float(r["U"]) for r in csv.DictReader(fh)]
        assert max(abs(u) for u in u_vals) <= 1e-12

    def test_multiple_slices(self, tmp_path):
        assert run(tmp_path, "solve", "--x2", "0.25,0.75", "--mesh", "101") == 0
        assert (tmp_path / "out" / "slice_0p25.json").exists()
        assert (tmp_path / "out" / "slice_0p75.json").exists()

    def test_out_of_domain_x2_is_usage_error(self, tmp_path):
        assert run(tmp_path, "solve", "--x2", "1.5") == 2

    def test_tiny_mesh_is_usage_error(self, tmp_path):
        assert run(tmp_path, "solve", "--mesh", "2") == 2

    def test_csv_restriction_is_the_compared_array(self, tmp_path):
        assert run(tmp_path, "solve", "--k", "2", "--x2", "0.3", "--mesh", "201") == 0
        with open(tmp_path / "out" / "slice_0p3.csv") as fh:
            column = [float(r["u_analytic_restriction"]) for r in csv.DictReader(fh)]
        params = compute_constants(2, 10, 8, k=2)
        sp = SliceProblem(x2_tilde=0.3, params=params, table=build_psi(params))
        sol, _ = solve_slice(sp, n_nodes=201)
        report = compare_slice(sol, sp)
        assert report.linf_vs_analytic == np.max(np.abs(sol.U - report.u_analytic))
        assert np.array_equal(column, report.u_analytic)
        assert "u_analytic" not in json.loads((tmp_path / "out" / "slice_0p3.json").read_text())

    @pytest.mark.filterwarnings("error")
    def test_depth_4_slice_exits_1_with_report(self, tmp_path, capsys):
        # a depth-4 slice that cannot meet tol: exit 1 with the non-converged
        # slice report written, no traceback and no LinAlgWarning
        argv = ["solve", "--k", "4", "--x2", "0.5", "--mesh", "201", "--tol", "1e-300"]
        assert run(tmp_path, *argv) == 1
        assert "slice x2=0.5: residual" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "slice_0p5.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] == 1
        assert report["residual_before"] > report["residual_inf"] > 1e-300
        manifest = read_manifest(tmp_path)
        assert set(manifest["artifacts"]) == {"slice_0p5.csv", "slice_0p5.json"}
        assert "error" not in manifest

    def test_singular_newton_matrix_exits_1(self, tmp_path, capsys, monkeypatch):
        # a typed solver failure is reported, not raised as a traceback,
        # and recorded in the manifest
        def singular(*args, **kwargs):
            raise SingularMatrixError(3, 0.0)

        monkeypatch.setattr(cli, "solve_slice", singular)
        assert run(tmp_path, "solve", "--x2", "0.5", "--mesh", "101") == 1
        message = "singular Newton matrix: pivot 3 has magnitude 0"
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = read_manifest(tmp_path)
        assert manifest["artifacts"] == {}
        assert manifest["error"] == {"type": "SingularMatrixError", "message": message}

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--x2-grid", "5", "--mesh", "11"],
            ["solve", "--x2", "0.3,0.5,0.7", "--mesh", "11"],
            ["compare", "--x2", "0.3,0.5,0.7", "--mesh", "11"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_failed_row_leaves_only_the_manifest(self, tmp_path, monkeypatch, argv):
        # the third row's solve fails: the rows solved before it leave no
        # file that the manifest does not list
        real = cli.solve_slice
        calls = []

        def third_singular(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise SingularMatrixError(3, 0.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_slice", third_singular)
        assert run(tmp_path, *argv) == 1
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]
        manifest = read_manifest(tmp_path)
        assert manifest["artifacts"] == {}
        assert manifest["error"]["type"] == "SingularMatrixError"

    def test_non_finite_residual_exits_1(self, tmp_path, capsys, monkeypatch):
        # a NaN coefficient at node 10 is a typed failure in the manifest,
        # not a slice reported as not converged after no step
        real = reduction.first_order_system

        def poisoned(sp):
            coefficients = real(sp)

            def with_nan(z):
                g, c1, c2 = coefficients(z)
                return g, np.where(np.arange(len(z)) == 10, np.nan, c1), c2

            return with_nan

        monkeypatch.setattr(reduction, "first_order_system", poisoned)
        assert run(tmp_path, "solve", "--mesh", "101") == 1
        message = "collocation residual not finite before the step: row 20 is nan"
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = read_manifest(tmp_path)
        assert manifest["artifacts"] == {}
        assert manifest["error"] == {"type": NonFiniteResidualError.__name__, "message": message}

    def test_nonconverged_slice_names_residual_and_tol(self, tmp_path, capsys):
        assert run(tmp_path, "solve", "--mesh", "101", "--tol", "1e-300") == 1
        err = capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "slice_0p5.json").read_text())
        assert err == (
            f"slice x2=0.5: residual {report['residual_inf']:.3g} above tol 1e-300\n"
        )

    @pytest.mark.parametrize(
        "k, x2, converged", [(1, 0.5, True), (1, 0.0, True), (3, 0.5, False)]
    )
    def test_residual_inf_is_the_collocation_residual(self, tmp_path, k, x2, converged):
        argv = ["solve", "--k", str(k), "--x2", str(x2), "--mesh", "201"]
        # depth 3 meets the default tol, so its non-converged case asks for 1e-300
        argv += [] if converged else ["--tol", "1e-300"]
        assert run(tmp_path, *argv) == (0 if converged else 1)
        report = json.loads((tmp_path / "out" / f"slice_{cli._tag(x2)}.json").read_text())
        assert report["converged"] is converged
        params = compute_constants(2, 10, 8, k=k)
        sp = SliceProblem(x2_tilde=x2, params=params, table=build_psi(params))
        sol, problem = solve_slice(sp, n_nodes=201)
        assert report["residual_inf"] == ode_residual(sol, problem)

    def test_flat_float_table_exits_1_with_record(self, tmp_path, capsys):
        # at depth 5 the float64 psi table has zero increments, so the
        # slice rejects it; the failure is recorded in the manifest
        assert run(tmp_path, "solve", "--k", "5", "--x2", "0.5", "--mesh", "101") == 1
        assert "psi not strictly increasing" in capsys.readouterr().err
        manifest = read_manifest(tmp_path)
        assert manifest["config"]["k"] == [5]
        assert manifest["error"]["type"] == "MonotonicityError"
        assert "psi not strictly increasing" in manifest["error"]["message"]


class TestSweepCompareVerify:
    def test_sweep_field(self, tmp_path):
        assert run(tmp_path, "sweep", "--x2-grid", "5", "--mesh", "101") == 0
        with open(tmp_path / "out" / "field.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        boundary = [r for r in rows if float(r["x2"]) in (0.0, 1.0)]
        assert all(abs(float(r["u_numeric"])) <= 1e-10 for r in boundary)

    def test_slice_csvs_share_format_blocks(self, tmp_path, format_block_rows):
        # 21 slice CSVs of 101 rows, 2121 rows, take three blocks, not 21
        # calls, and field.csv's 441 rows one more; no block holds more than
        # CSV_BLOCK_ROWS rows
        assert run(tmp_path, "sweep", "--x2-grid", "21", "--mesh", "101") == 0
        assert format_block_rows == [bvp.CSV_BLOCK_ROWS, bvp.CSV_BLOCK_ROWS, 73, 441]

    def test_compare_reports(self, tmp_path, capsys):
        assert run(tmp_path, "compare", "--x2", "0.5", "--mesh", "201") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["amplitude_ratio"] > 1.0

    @pytest.mark.parametrize(
        "argv, reports",
        [(["sweep", "--x2-grid", "3"], "slice_*.json"), (["compare", "--x2", "0.5"], "compare_*.json")],
    )
    def test_nonconverged_rows_named_on_stderr(self, tmp_path, capsys, argv, reports):
        # only a row with zero source meets tol 1e-300: exit 1, and every row
        # left above tol is named on stderr, as solve does
        assert run(tmp_path, *argv, "--k", "3", "--mesh", "201", "--tol", "1e-300") == 1
        err = capsys.readouterr().err
        rows = sorted(
            (json.loads(p.read_text()) for p in (tmp_path / "out").glob(reports)),
            key=lambda r: r["x2_tilde"],
        )
        expected = [
            f"slice x2={r['x2_tilde']}: residual {r['residual_inf']:.3g} above tol 1e-300\n"
            for r in rows
            if not r["converged"]
        ]
        assert expected and err == "".join(expected)

    def test_taylor_check(self, tmp_path):
        assert run(tmp_path, "taylor-check") == 0
        report = json.loads((tmp_path / "out" / "taylor_check.json").read_text())
        for M in (0, 1, 2):
            assert report["orders"][f"M={M}"]["order"] >= M + 0.5

    def test_bell_table(self, tmp_path):
        assert run(tmp_path, "bell", "--max-m", "4") == 0
        with open(tmp_path / "out" / "bell_partitions.csv") as fh:
            rows = list(csv.DictReader(fh))
        m4 = [r for r in rows if r["m"] == "4"]
        assert sum(int(r["count"]) for r in m4) == 15  # Bell number B_4

    def test_verify_all_pass(self, tmp_path, capsys):
        assert run(tmp_path, "verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        checks = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert all(c["pass"] for c in checks.values())

    def test_verify_psi_inverse_calls(self, tmp_path, monkeypatch):
        # one inversion per quadrature cubic on its 40 Gauss nodes; the slice
        # is solved, compared and closed in x1 and inverts nothing
        sizes = []

        def inverse(table, y):
            sizes.append(np.size(y))
            return psi_inverse(table, y)

        monkeypatch.setattr(reduction, "psi_inverse", inverse)
        assert run(tmp_path, "verify") == 0
        assert sizes == [40] * 4


def reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


class TestArtifactText:
    @pytest.mark.parametrize(
        "argv",
        [
            ["psi", "--k", "1,2,3,4"],
            ["sweep", "--k", "1", "--x2-grid", "5", "--mesh", "101"],
            ["sweep", "--k", "2", "--x2-grid", "5", "--mesh", "101"],
            ["solve", "--k", "3", "--x2", "0.5", "--mesh", "201"],
            ["solve", "--k", "4", "--x2", "0.5", "--mesh", "201"],
        ],
        ids=lambda argv: f"{argv[0]}-k{argv[2]}",
    )
    def test_csv_floats_read_back_as_their_17g_text(self, tmp_path, argv):
        # "%.17g" round-trips float64, so each CSV is its own reference:
        # parsed and written again through csv.writer it gives the same bytes.
        # The depth-3 and depth-4 slices exit 1 but still write their CSV.
        run(tmp_path, *argv)
        paths = sorted((tmp_path / "out").glob("*.csv"))
        assert paths
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            again = io.StringIO(newline="")
            writer = csv.writer(again)
            writer.writerow(header)
            writer.writerows(["%.17g" % float(v) for v in row] for row in rows)
            assert path.read_bytes() == again.getvalue().encode(), path.name

    def test_json_artifacts_are_strict(self, tmp_path):
        # the row x2 = 0 has a zero restriction, so its amplitude ratio is
        # not a number: it is written as null, not as the non-JSON NaN
        assert run(tmp_path, "sweep", "--x2-grid", "3", "--mesh", "11") == 0
        paths = sorted((tmp_path / "out").glob("*.json"))
        assert len(paths) == 4
        reports = {p.name: json.loads(p.read_text(), parse_constant=reject_constant) for p in paths}
        assert reports["slice_0.json"]["amplitude_ratio"] is None
        assert reports["slice_0p5.json"]["amplitude_ratio"] > 1.0

    def test_degenerate_boundary_rows_have_no_ratio(self, tmp_path):
        # both boundary rows have U = 0: at x2 = 0 the restriction is exactly
        # zero, at x2 = 1 it is round-off (sin(pi) in float64) and the zero
        # state already meets tol, so neither row has an amplitude ratio
        assert run(tmp_path, "sweep", "--x2-grid", "3", "--mesh", "11") == 0
        for name in ("slice_0.json", "slice_1.json"):
            report = json.loads((tmp_path / "out" / name).read_text())
            assert report["iterations"] == 0
            assert report["residual_before"] == report["residual_inf"]
            assert report["amplitude_ratio"] is None, name


class TestEveryDepth:
    # k=7 is accepted too, but its build is modelled at 2.3 GiB: too large for a test
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_solve_ends_converged_or_typed(self, tmp_path, capsys, k):
        code = run(tmp_path, "solve", "--k", str(k), "--mesh", "21")
        err = capsys.readouterr().err
        manifest = read_manifest(tmp_path)
        assert "Traceback" not in err
        if k <= 4:
            # "converged" means only that the collocation residual met tol.  A
            # 21-node mesh puts a node in every 50th (k=3) or 500th (k=4) psi
            # cell, a 201-node mesh in every 5th or 50th: the k=3 and k=4
            # values are not results until the discretisation error is
            # estimated (ROADMAP item 4)
            assert code == 0 and err == ""
            report = json.loads((tmp_path / "out" / "slice_0p5.json").read_text())
            assert report["converged"] is True
        else:
            # the float64 psi table is flat at these depths
            assert code == 1 and manifest["artifacts"] == {}
            assert manifest["error"]["type"] == "MonotonicityError"


class TestSlicePathUsageErrors:
    @pytest.mark.parametrize("command", ["solve", "sweep", "compare", "verify"])
    def test_one_dimension_is_usage_error(self, tmp_path, capsys, command):
        assert run(tmp_path, command, "--n", "1", "--gamma", "4") == 2
        err = capsys.readouterr().err
        assert "n=1" in err and "alpha_2" in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["psi", "constants"])
    def test_one_dimension_tables_still_work(self, tmp_path, command):
        assert run(tmp_path, command, "--n", "1", "--gamma", "4") == 0

    @pytest.mark.parametrize("command", ["solve", "sweep", "compare"])
    def test_depth_list_is_usage_error(self, tmp_path, capsys, command):
        assert run(tmp_path, command, "--k", "1,2", "--mesh", "101") == 2
        assert "--k 1,2" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5"])
    def test_tol_not_finite_positive_is_usage_error(self, tmp_path, capsys, tol):
        assert run(tmp_path, "solve", "--mesh", "101", "--tol", tol) == 2
        assert f"--tol must be a finite number above 0, got {float(tol)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", ["0", "1", "-3"])
    def test_short_x2_grid_is_usage_error(self, tmp_path, capsys, rows):
        assert run(tmp_path, "sweep", "--x2-grid", rows) == 2
        assert f"at least 2 rows, got {rows}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, x2, message",
        [
            ("solve", "0.5,0.5000001", "--x2 values 0.5 and 0.5000001 share the artifact tag 0p5"),
            ("compare", "0.3,0.7,0.3", "--x2 values 0.3 and 0.3 share the artifact tag 0p3"),
        ],
    )
    def test_x2_values_sharing_a_tag_are_usage_error(self, tmp_path, capsys, command, x2, message):
        # the slices would write the same file names, the later over the earlier
        assert run(tmp_path, command, "--x2", x2, "--mesh", "101") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestDepthLimit:
    @pytest.mark.parametrize("k", ["8", "1,8"])
    @pytest.mark.parametrize("command", ["psi", "solve", "sweep", "compare"])
    def test_unbuildable_depth_is_usage_error(self, tmp_path, capsys, monkeypatch, command, k):
        # refused before any table is built, the listed depth 1 included
        def no_build(params):
            raise AssertionError(f"build_psi called at k={params.k}")

        monkeypatch.setattr(cli, "build_psi", no_build)
        assert run(tmp_path, command, "--k", k) == 2
        assert capsys.readouterr().err == (
            "error: --k 8: building the psi table needs about 39.1 GiB (modelled), "
            "above the 4 GiB limit\n"
        )
        assert not (tmp_path / "out").exists()

    def test_commands_without_depth_are_not_limited(self, tmp_path):
        # a 10^8-node table would exceed the limit, but constants builds none
        assert run(tmp_path, "constants", "--gamma", "100000000") == 0

    def test_depths_up_to_7_are_accepted(self):
        args = cli.build_parser().parse_args(["psi", "--k", "1,2,3,4,5,6,7"])
        assert cli.resolve_config(args).k == [1, 2, 3, 4, 5, 6, 7]


class TestCountUsageErrors:
    @pytest.mark.parametrize(
        "argv", [["--n", "1", "--gamma", "4"], ["--n", "3"]], ids=["n1", "n3"]
    )
    def test_taylor_check_needs_two_dimensions(self, tmp_path, capsys, argv):
        # its check points are 2-D, so taylor-check takes no --n
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "taylor-check", *argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: --n {argv[1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_max_m_is_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "bell", "--max-m", "-1") == 2
        assert "--max-m must be >= 0, got -1" in capsys.readouterr().err
        assert not any((tmp_path / "out").iterdir())


class TestConfigFile:
    def test_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mesh = 101\nx2 = 0.25\n")
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "slice_0p25.json").exists()

    def test_cli_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x2 = 0.25\n")
        assert main(["solve", "--config", str(cfg), "--x2", "0.75",
                     "--mesh", "101", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "slice_0p75.json").exists()
        assert not (tmp_path / "out" / "slice_0p25.json").exists()

    def test_malformed_file_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not key value\n")
        assert main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot read --config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line", ["meshh = 5", "x2-grid = 3", "mesh = many", "tol = 1e-3x"],
        ids=["unknown", "sweep_only", "bad_int", "bad_float"],
    )
    def test_bad_key_or_value_exits_2_as_the_flag_would(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment\n\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"--{line.split(' = ')[0]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["x2_grid", "x2-grid"])
    def test_key_spellings(self, tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 3\nmesh = 51\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        config = read_manifest(tmp_path)["config"]
        assert (config["x2_grid"], config["mesh"]) == (3, 51)


# a legal value of each flag, so that only the flag itself can be refused
FLAG_VALUES = {"gamma": "10", "n": "2", "terms": "8", "k": "1", "mesh": "101", "tol": "0.001",
               "x2": "0.5", "x2-grid": "3", "format": "json", "max-m": "4"}
TAKEN = [(c, f) for c, (_, _, flags) in cli.COMMANDS.items() for f in flags]
LEFT_OUT = [(c, f) for c in cli.COMMANDS for f in FLAG_VALUES if (c, f) not in TAKEN]


class TestFlagTable:
    """Each command takes exactly the flags of its COMMANDS entry."""

    def test_every_flag_has_a_test_value(self):
        assert set(FLAG_VALUES) == set(cli.FLAGS) - {"config", "out"}

    @pytest.mark.parametrize("command, flag", TAKEN)
    def test_taken_flag_parses(self, command, flag):
        args = cli.build_parser().parse_args([command, f"--{flag}", FLAG_VALUES[flag]])
        assert str(getattr(args, flag.replace("-", "_"))) == FLAG_VALUES[flag]

    @pytest.mark.parametrize("command, flag", LEFT_OUT)
    def test_left_out_flag_is_usage_error(self, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, f"--{flag}", FLAG_VALUES[flag])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_no_flag_abbreviation(self, tmp_path):
        # with abbreviations, sweep would read --x2 as --x2-grid
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "sweep", "--x2", "5")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_manifest_fills_untaken_flags_with_defaults(self, tmp_path):
        assert run(tmp_path, "bell", "--max-m", "2") == 0
        assert read_manifest(tmp_path)["config"] == {
            "gamma": 10, "n": 2, "k": [1], "terms": 8, "mesh": 1001, "tol": 1e-10,
            "x2": [0.5], "x2_grid": 21, "out": str(tmp_path / "out"), "format": "csv",
        }


REPO = Path(__file__).resolve().parent.parent


def readme_cli_section() -> str:
    text = (REPO / "README.md").read_text()
    return text[text.index("## CLI"):text.index("## Tests")]


class TestNoDriftFromFlagTable:
    """The README and the benchmark workloads use only the flags of the table."""

    def test_readme_commands_parse(self):
        block = readme_cli_section().split("```sh\n")[1].split("```")[0]
        argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
        assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
        for argv in argvs:
            cli.build_parser().parse_args(argv + ["--out", "x"])

    def test_readme_flag_table(self):
        rows = re.findall(r"^\| ([a-z, -]+) \| ([a-z0-9, -]+) \|$", readme_cli_section(), re.M)
        table = {
            command: set(flags.split(", "))
            for commands, flags in rows
            if commands != "---"
            for command in commands.split(", ")
        }
        assert table == {name: set(flags) for name, (_, _, flags) in cli.COMMANDS.items()}

    def test_readme_defaults(self):
        text = re.search(r"Defaults: (`[^`]*`)", readme_cli_section()).group(1)
        words = shlex.split(text.strip("`"))
        defaults = {flag[2:]: value for flag, value in zip(words[::2], words[1::2])}
        assert defaults == {
            name: str(default)
            for name, (default, _) in cli.FLAGS.items()
            if name not in ("config", "out")
        }

    def test_benchmark_workloads_parse(self):
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", REPO / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert len(workloads.WORKLOADS) == 4
        for name in workloads.WORKLOADS:
            for argv in workloads.workload_argvs(name, 1):
                cli.build_parser().parse_args(argv + ["--out", "x"])


# scipy subpackages that scipy.integrate pulls in; kstpde needs only
# scipy.linalg's LAPACK band LU
UNUSED_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.fft")

# one fresh interpreter: the scipy modules loaded after importing the CLI,
# after the commands that solve no slice, and after a solve
IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import kstpde.cli
kstpde_modules = sorted(m for m in sys.modules if m.startswith("kstpde."))
from kstpde import checks
state = {"import": loaded(), "kstpde_import": kstpde_modules,
         "rules_built": checks._gauss_legendre_40.cache_info().currsize}
out = sys.argv[1]
for argv in (["psi", "--k", "1"], ["constants"], ["bell"], ["taylor-check"]):
    assert kstpde.cli.main(argv + ["--out", f"{out}/{argv[0]}"]) == 0
state["no_solve"] = loaded()
assert kstpde.cli.main(["solve", "--mesh", "51", "--out", f"{out}/solve"]) == 0
state["solve"] = loaded()
print(json.dumps(state))
"""


def test_cli_import_loads_no_unused_scipy_subpackage(tmp_path):
    src = Path(kstpde.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    state = json.loads(result.stdout.splitlines()[-1])
    # importing the CLI loads no scipy module, none of the modules that only
    # bell, taylor-check and verify use, and builds no quadrature rule
    assert state["import"] == []
    needed = ["kstpde.bvp", "kstpde.cli", "kstpde.inner", "kstpde.reduction"]
    assert state["kstpde_import"] == needed
    assert state["rules_built"] == 0
    # commands that solve no slice never load scipy.linalg, yet their
    # manifests still record the installed scipy version
    assert "scipy.linalg" not in state["no_solve"]
    for command in ("psi", "constants", "bell", "taylor-check"):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["versions"]["scipy"] == scipy.__version__
    # the first band solve loads scipy.linalg, and nothing scipy.integrate pulls in
    assert "scipy.linalg" in state["solve"]
    assert [m for m in UNUSED_SCIPY if m in state["solve"]] == []
