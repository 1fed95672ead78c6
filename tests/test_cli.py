"""Command-line interface: exit codes, artifacts, manifest, determinism."""

import csv
import hashlib
import json

import pytest

from kstpde.cli import main


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

    def test_manifest_checksums_match_files(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "2") == 0
        manifest = read_manifest(tmp_path)
        for name, digest in manifest["artifacts"].items():
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_rerun_is_byte_identical(self, tmp_path):
        assert run(tmp_path, "psi", "--k", "2") == 0
        first = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert run(tmp_path, "psi", "--k", "2") == 0
        second = {
            p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()
        }
        assert first == second


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

    @pytest.mark.filterwarnings("error")
    def test_singular_newton_matrix_exits_1(self, tmp_path, capsys):
        # the depth-4 coefficients make the Newton matrix singular; the
        # typed failure is reported, not raised as a traceback, and no
        # LinAlgWarning precedes it
        assert run(tmp_path, "solve", "--k", "4", "--x2", "0.5", "--mesh", "201") == 1
        assert "singular Newton matrix" in capsys.readouterr().err


class TestSweepCompareVerify:
    def test_sweep_field(self, tmp_path):
        assert run(tmp_path, "sweep", "--x2-grid", "5", "--mesh", "101") == 0
        with open(tmp_path / "out" / "field.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        boundary = [r for r in rows if float(r["x2"]) in (0.0, 1.0)]
        assert all(abs(float(r["u_numeric"])) <= 1e-10 for r in boundary)

    def test_compare_reports(self, tmp_path, capsys):
        assert run(tmp_path, "compare", "--x2", "0.5", "--mesh", "201") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is True
        assert report["amplitude_ratio"] > 1.0

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
