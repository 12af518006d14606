import json
import time

import numpy as np
import pytest

from madelab import cli, fieldio
from madelab.currents import PhysicalParams
from madelab.grid import ComplexField, GridSpec
from madelab.madelung import decompose
from madelab.spectral import builtin_state


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def analyze(tmp_path, *extra):
    argv = ["analyze", "--out", str(tmp_path), *extra]
    return cli.main(argv)


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        code = analyze(tmp_path, "--builtin", "plane_wave", "--k1", "2", "--k2", "3")
        assert code == 0
        assert "report written" in capsys.readouterr().out

    def test_vortex_exit_two(self, tmp_path, capsys):
        code = analyze(
            tmp_path, "--builtin", "ho_vortex",
            "--grid", "64x64", "--domain", "-4,4,-4,4",
        )
        assert code == 2
        assert "vortices" in capsys.readouterr().err
        # diagnostics still written
        rep = load_report(tmp_path)
        assert rep["norms"]["divJtilde_scaled"] == "n/a"
        assert rep["vortices"]["count"] >= 1
        assert rep["vortices"]["unwrapped"] is False

    def test_bad_expression_exit_one(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "sin(") == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_number_exit_one_with_offset(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "exp(1.2.3*x)") == 1
        assert "error: parse error at offset 4: malformed number '1.2.3'" in capsys.readouterr().err

    def test_vanishing_state_exit_one(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "0") == 1

    def test_usage_error_exit_one(self, tmp_path, capsys):
        # argparse failures must not collide with the vortex exit code 2
        assert cli.main(["analyze", "--out", str(tmp_path)]) == 1
        assert cli.main(["analyze", "--nope"]) == 1

    def test_nonconvergence_exit_three(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "0", "--grid", "96x96",
            "--domain", "0,1,0,1", "--count", "10",
            "--max-iter", "2", "--out", str(tmp_path),
        ])
        assert code == 3
        rep = load_report(tmp_path)
        assert "error" in rep

    @pytest.mark.parametrize("argv", [
        ["analyze", "--builtin", "ho_ground", "--kb", "2"],
        ["solve", "--potential", "0", "--kb", "2"],
        ["solve", "--potential", "0", "--energy", "1"],
        ["convergence", "--builtin", "ho_ground", "--kb", "2"],
        ["convergence", "--builtin", "ho_ground", "--tol", "0.1"],
        ["convergence", "--builtin", "ho_ground", "--out", "x"],
        ["convergence", "--builtin", "ho_ground", "--dump", "csv"],
    ])
    def test_removed_options_exit_one(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_requires_potential(self, tmp_path, capsys):
        assert cli.main(["solve", "--out", str(tmp_path)]) == 1

    def test_degenerate_combine_mismatch_exit_one(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "0", "--grid", "32x32",
            "--domain", "0,1,0,1", "--count", "2",
            "--combine", "0,1:1,i", "--out", str(tmp_path),
        ])
        assert code == 1


class TestGridParsing:
    def test_interior_point_convention(self, tmp_path):
        analyze(tmp_path, "--psi", "1+x*0", "--grid", "9x9", "--domain", "0,1,0,1")
        rep = load_report(tmp_path)
        g = rep["grid"]
        assert g["dx"] == pytest.approx(0.1)
        assert g["x0"] == pytest.approx(0.1)
        assert g["nx"] == 9

    def test_negative_domain_values(self, tmp_path):
        code = analyze(
            tmp_path, "--builtin", "ho_ground", "--domain", "-2,2,-2,2", "--grid", "15x15"
        )
        assert code == 0
        assert load_report(tmp_path)["grid"]["x0"] < 0

    def test_grid_raw_override(self, tmp_path):
        analyze(
            tmp_path, "--psi", "exp(x+i*y)",
            "--grid-raw", "11,12,-1.0,0.5,0.25,0.125",
        )
        g = load_report(tmp_path)["grid"]
        assert (g["nx"], g["ny"]) == (11, 12)
        assert (g["x0"], g["y0"], g["dx"], g["dy"]) == (-1.0, 0.5, 0.25, 0.125)

    def test_malformed_grid(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "1", "--grid", "64") == 1
        assert analyze(tmp_path, "--psi", "1", "--domain", "1,0,0,1") == 1


class TestReport:
    def test_structure(self, tmp_path):
        analyze(tmp_path, "--builtin", "plane_wave", "--k1", "2", "--k2", "3",
                "--potential", "0")
        rep = load_report(tmp_path)
        assert rep["schema"] == "madelab-report/1"
        for key in ("config", "state", "grid", "tolerance", "norms",
                    "vortices", "properties", "manifest", "generated_at"):
            assert key in rep
        assert set(rep["properties"]) == {"P1", "P2", "P3", "P4", "P5"}
        for v in rep["properties"].values():
            assert v["status"] in ("holds", "fails", "precondition-not-met")
        assert rep["norms"]["qhjResidual"] != "n/a"

    def test_plane_wave_properties_hold(self, tmp_path):
        analyze(tmp_path, "--builtin", "plane_wave", "--k1", "2", "--k2", "3")
        rep = load_report(tmp_path)
        for v in rep["properties"].values():
            assert v["status"] == "holds"

    def test_deterministic_modulo_timestamp(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            cli.main(["analyze", "--builtin", "ho_ground", "--out", str(d)])
        r1, r2 = load_report(d1), load_report(d2)
        r1.pop("generated_at"), r2.pop("generated_at")
        r1["config"].pop("out"), r2["config"].pop("out")
        assert r1 == r2

    def test_manifest_hashes_verify(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "17x17")
        rep = load_report(tmp_path)
        import hashlib

        for entry in rep["manifest"]:
            blob = (tmp_path / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]

    def test_tol_override_echoed(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--tol", "0.5")
        assert load_report(tmp_path)["tolerance"] == 0.5

    @pytest.mark.parametrize("flag", [("--hbar", "2"), ("--mass", "0.5")])
    def test_p3_sides_share_one_scale(self, tmp_path, flag):
        # at hbar/m = 2, (m/hbar) e^{-2I} div J~ and defectA still agree to O(h^2)
        analyze(tmp_path, "--psi", "exp(x+i*y)*exp(-0.1*(x^2+y^2))", *flag)
        rep = load_report(tmp_path)
        p3 = rep["properties"]["P3"]["residuals"]
        h = rep["grid"]["dx"]
        assert abs(p3["divJtilde_scaled"] - p3["defectA"]) <= h * h


class TestVortexSummary:
    @staticmethod
    def by_set_difference(m):
        """The summary with tears defined as the unwrap error's entries that
        are not residues."""
        plaquettes = m.vortex_plaquettes()
        residues = set(plaquettes)
        tears = [] if m.unwrap_error is None else [
            list(t) for t in m.unwrap_error.plaquettes if t not in residues]
        return {
            "plaquettes": [list(t) for t in plaquettes[:50]],
            "count": len(plaquettes),
            "total_winding": int(sum(w for _, _, w in plaquettes)),
            "unwrapped": m.I_unwrapped is not None,
            "tears": tears[:50],
        }

    def test_noise_phase_summary_is_fast(self):
        spec = GridSpec(129, 129, -4.0, -4.0, 0.0625, 0.0625)
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, spec.shape)
        m = decompose(ComplexField(spec, np.exp(1j * theta)))
        assert len(m.vortex_plaquettes()) > 5000
        start = time.perf_counter()
        got = cli.vortex_summary(m)
        assert time.perf_counter() - start < 1.0
        assert got == self.by_set_difference(m)

    def test_hidden_vortex_reports_tears(self):
        spec = GridSpec(65, 65, -4.0, -4.0, 0.125, 0.125)
        psi, _ = builtin_state("ho_vortex", {"l": 1}, spec, PhysicalParams())
        m = decompose(psi, node_threshold=0.3)
        got = cli.vortex_summary(m)
        assert got["count"] == 0 and got["tears"]
        assert got == self.by_set_difference(m)


class TestDumps:
    def test_bin_round_trip(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "17x17", "--dump", "bin")
        f = fieldio.read_binary(tmp_path / "S.mfld")
        assert f.spec.nx == 17
        psi = fieldio.read_complex(tmp_path / "psi.mfld")
        # S from dump matches ln|psi|
        assert np.allclose(f.values[f.mask], np.log(np.abs(psi.values))[f.mask])

    def test_csv_dump(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9", "--dump", "csv")
        f = fieldio.read_csv(tmp_path / "U.csv")
        assert f.spec.nx == 9

    def test_gnuplot_dump_keeps_psi_binary(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9", "--dump", "gnuplot")
        assert (tmp_path / "orth.dat").exists()
        assert (tmp_path / "psi.dat.re").read_bytes()[:5] == b"MFLD1"

    def test_env_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MADELUNG_OUT", str(tmp_path / "envdir"))
        assert cli.main(["analyze", "--builtin", "ho_ground", "--grid", "9x9"]) == 0
        assert (tmp_path / "envdir" / "report.json").exists()


class TestSolve:
    def test_box_ground_state(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "0", "--grid", "48x48", "--domain", "0,1,0,1",
            "--count", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        rep = load_report(tmp_path)
        assert rep["energies"][0] == pytest.approx(np.pi**2, rel=1e-3)
        # discrete eigenstate: continuity defect at roundoff
        assert rep["norms"]["defectC"]["max"] < 1e-9

    def test_combine_vortex(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "(x^2+y^2)/2", "--grid", "64x64",
            "--domain", "-4,4,-4,4", "--count", "3",
            "--combine", "1,2:1,i", "--out", str(tmp_path),
        ])
        assert code == 2
        rep = load_report(tmp_path)
        assert abs(rep["vortices"]["total_winding"]) == 1

    def test_state_index(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "0", "--grid", "32x32", "--domain", "0,1,0,1",
            "--count", "2", "--state-index", "1", "--out", str(tmp_path),
        ])
        # the (2,1) mode changes sign across a nodal line, so its 0/pi
        # phase cannot be unwrapped; the report is still complete
        assert code == 2
        rep = load_report(tmp_path)
        assert rep["state"]["state_index"] == 1
        assert rep["state"]["energy"] == pytest.approx(rep["energies"][1])

    @pytest.mark.parametrize("spec", ["1,5:1,i", "-1,2:1,i"])
    def test_combine_index_out_of_range(self, tmp_path, capsys, spec):
        code = cli.main([
            "solve", "--potential", "(x^2+y^2)/2", "--grid", "16x16",
            "--domain", "-4,4,-4,4", "--count", "3",
            "--combine", spec, "--out", str(tmp_path),
        ])
        assert code == 1
        assert "error: --combine" in capsys.readouterr().err

    def test_bad_combine_spec(self, tmp_path, capsys):
        code = cli.main([
            "solve", "--potential", "0", "--grid", "16x16", "--domain", "0,1,0,1",
            "--count", "2", "--combine", "junk", "--out", str(tmp_path),
        ])
        assert code == 1


class TestConvergence:
    def test_csv_output_and_orders(self, capsys):
        code = cli.main([
            "convergence", "--psi", "exp(x+i*y)", "--grid", "16x16",
            "--domain", "-1,1,-1,1", "--levels", "3",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "h"
        assert "crStrict" in header and "defectA" in header
        assert len(lines) == 5  # header + 3 levels + order row
        order_row = lines[-1].split(",")
        assert order_row[0] == "order"
        # crStrict converges at second order; orth sits at roundoff -> na
        by = dict(zip(header, order_row))
        assert by["orth"] == "na"
        assert 1.7 < float(by["crStrict"]) < 2.3
        assert 1.7 < float(by["defectA"]) < 2.3
        # successive h halves
        h0 = float(lines[1].split(",")[0])
        h1 = float(lines[2].split(",")[0])
        assert h1 == pytest.approx(h0 / 2)
