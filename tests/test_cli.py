import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from madelab import cli, fieldio
from madelab.currents import PhysicalParams
from madelab.grid import ComplexField, GridSpec, ScalarField
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

    def test_residual_failure_reports_every_residual(self, tmp_path, capsys):
        # no pair reaches 1e-16; the partial report keeps one residual per
        # energy, as the schema promises
        code = cli.main([
            "solve", "--potential", "(x^2+y^2)/2", "--grid", "32x32",
            "--domain", "-5,5,-5,5", "--count", "4", "--solver-tol", "1e-16",
            "--out", str(tmp_path),
        ])
        assert code == 3
        rep = load_report(tmp_path)
        assert len(rep["energies"]) == len(rep["solver_residuals"]) == 4
        assert all(0 < r < 1e-10 for r in rep["solver_residuals"])
        assert "eigenpair 0 residual" in rep["error"]

    def test_count_not_below_cell_count_exit_one(self, tmp_path, capsys):
        code = cli.main(["solve", "--potential", "0", "--grid", "3x3",
                         "--count", "9", "--out", str(tmp_path)])
        assert code == 1
        assert "error: count 9 needs a grid of more than 9 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--grid", "3x3", "--psi", "exp(x+i*y)"],
        ["analyze", "--grid", "3x12", "--builtin", "ho_vortex"],
        ["analyze", "--grid", "12x3", "--builtin", "ho_ground"],
        ["solve", "--grid", "3x3", "--count", "2", "--potential", "0"],
        ["solve", "--grid", "16x3", "--count", "2", "--potential", "x^2"],
    ])
    def test_three_cell_axis_is_a_defined_outcome(self, argv, tmp_path, capsys):
        code = cli.main(argv + ["--out", str(tmp_path)])
        assert code in (0, 1, 2)
        if code == 1:
            assert "error:" in capsys.readouterr().err

    def test_solve_requires_potential(self, tmp_path, capsys):
        assert cli.main(["solve", "--out", str(tmp_path)]) == 1

    def test_potential_nonfinite_everywhere_exit_one(self, tmp_path, capsys):
        code = cli.main(["solve", "--potential", "1/0", "--count", "2",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "error: potential is non-finite at every cell" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--builtin", "ho_ground", "--potential", "1/0", "--energy", "1"],
        ["convergence", "--builtin", "ho_ground", "--potential", "1/0", "--energy", "1"],
    ])
    def test_potential_nonfinite_everywhere_other_commands(self, argv, tmp_path, monkeypatch,
                                                           capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert "error: potential is non-finite at every cell" in err
        assert out == ""
        assert not list(tmp_path.rglob("report.json"))

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

    @pytest.mark.parametrize("argv,key,value", [
        (["analyze", "--psi", "-exp(x+i*y)"], "psi", "-exp(x+i*y)"),
        (["solve", "--potential", "-1/(1+x^2+y^2)", "--count", "1", "--grid", "33x33"],
         "potential", "-1/(1+x^2+y^2)"),
        (["analyze", "--builtin", "plane_wave", "--k1", "-1e1"], "k1", -10.0),
    ])
    def test_any_value_may_start_with_dash(self, argv, key, value, tmp_path):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert load_report(tmp_path)["config"][key] == value

    def test_option_is_never_taken_as_a_value(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "--builtin", "ho_ground") == 1
        assert "argument --psi: expected one argument" in capsys.readouterr().err

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


class TestOutputErrors:
    @pytest.mark.parametrize("where", ["under-file", "dev-null"])
    def test_out_dir_cannot_be_created(self, where, tmp_path, capsys):
        if where == "under-file":
            (tmp_path / "file").write_text("")
            out = tmp_path / "file" / "sub"
        else:
            out = Path("/dev/null/x")
        code = cli.main(["analyze", "--psi", "exp(x+i*y)", "--grid", "9x9", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(out) in err and "Traceback" not in err

    def test_report_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "report.json").mkdir()
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "report.json" in err


def _affinity(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitDump:
    """`dump_fields` shares the files out over the CPUs in the affinity set;
    the split must not show in the files, the manifest or stdout."""

    @pytest.fixture(scope="class")
    def diagnosis(self):
        spec = GridSpec(19, 13, -1.0, -0.8, 0.1, 0.125)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp((1j - 0.5) * (X + 2 * Y) - X**2))
        V = ScalarField(spec, 0.5 * (X**2 + Y**2))
        return cli.diagnose(psi, PhysicalParams(), 0.01, V=V, E=1.0)

    @pytest.mark.parametrize("fmt", ["csv", "bin", "gnuplot"])
    def test_same_files_and_manifest_for_any_worker_count(self, fmt, diagnosis, tmp_path,
                                                          monkeypatch):
        fields = cli._collect_fields(diagnosis)
        assert "I" in fields and "qhjResidual" in fields
        real_fork, forks = os.fork, []

        def counting_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        results = []
        for workers in (1, 2, 3):
            _affinity(monkeypatch, workers)
            forks.clear()
            out = tmp_path / f"w{workers}"
            out.mkdir()
            manifest = cli.dump_fields(diagnosis.psi, fields, out, fmt)
            assert len(forks) == workers - 1
            _assert_no_child_left()
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            results.append((manifest, files))
        manifest, files = results[0]
        assert [e["path"] for e in manifest][:2] == [f"psi{cli._DUMP[fmt][0]}.re",
                                                     f"psi{cli._DUMP[fmt][0]}.im"]
        assert sorted(files) == sorted(e["path"] for e in manifest)
        assert all(hashlib.sha256(files[e["path"]]).hexdigest() == e["sha256"]
                   for e in manifest)
        assert results[1] == results[0] and results[2] == results[0]

    def test_one_worker_starts_no_child(self, diagnosis, tmp_path, monkeypatch):
        _affinity(monkeypatch, 1)

        def no_fork():
            raise AssertionError("forked with one worker")

        monkeypatch.setattr(os, "fork", no_fork)
        manifest = cli.dump_fields(diagnosis.psi, cli._collect_fields(diagnosis), tmp_path, "bin")
        assert len(manifest) == len(list(tmp_path.iterdir()))

    def test_no_affinity_call_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._worker_count(19) == 1

    def test_worker_count_is_capped_by_jobs(self, monkeypatch):
        _affinity(monkeypatch, 64)
        assert cli._worker_count(19) == 19

    # psi.csv.re is the parent's first file; psi.csv.im goes to child 1 of
    # 2 and I.csv to child 2 of 3
    @pytest.mark.parametrize("workers,blocked", [(2, "psi.csv.re"), (2, "psi.csv.im"),
                                                 (3, "I.csv")])
    def test_failed_write_exits_one_and_reaps(self, workers, blocked, tmp_path,
                                              monkeypatch, capsys):
        _affinity(monkeypatch, workers)
        (tmp_path / blocked).mkdir()
        code = analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "9x9", "--dump", "csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert blocked in err and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()
        _assert_no_child_left()

    def test_stdout_lines_appear_once(self, tmp_path):
        # "started" still sits in the pipe's buffer when the dump forks, so
        # a child that flushed its copy would print it twice
        out = tmp_path / "out"
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "from madelab import cli\n"
                "print('started')\n"
                f"sys.exit(cli.main(['analyze', '--builtin', 'ho_ground', '--grid', '9x9',"
                f" '--dump', 'csv', '--out', {str(out)!r}]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["started", f"report written to {out / 'report.json'}"]
        assert proc.stderr == ""


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

    def test_count_cutting_a_cluster_converges(self, tmp_path, capsys):
        # --count 2 cuts the E = 2 pair; at seed 0 the cut pair alone
        # misses 1e-10, and the solver completes the cluster
        code = cli.main([
            "solve", "--potential", "(x^2+y^2)/2", "--count", "2",
            "--domain", "-6,6,-6,6", "--grid", "129x129", "--solver-tol", "1e-10",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        rep = load_report(tmp_path)
        assert len(rep["energies"]) == len(rep["solver_residuals"]) == 2
        assert max(rep["solver_residuals"]) <= 1e-10

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

    @pytest.mark.parametrize("levels", ["1", "0", "-2"])
    def test_fewer_than_two_levels_exit_one(self, levels, capsys):
        code = cli.main(["convergence", "--psi", "exp(x+i*y)", "--grid", "16x16",
                         "--levels", levels])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: --levels needs at least 2 refinements" in err
