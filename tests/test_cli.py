import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madelab import catalog, cli, dumps, fieldio, spectral
from madelab.currents import PhysicalParams
from madelab.grid import ComplexField, GridSpec, ScalarField, VectorField
from madelab.madelung import VortexError, decompose, unwrap_phase
from madelab.spectral import builtin_state
from reportcheck import check_report

# not separable on the grid, so `solve` takes shift-invert Lanczos
QUARTIC = "(x^2+y^2)/2+0.05*(x^2+y^2)^2"
# separable, so solved exactly, but no pair reaches 1e-16: exit 3
UNCONVERGED = ["solve", "--potential", "(x^2+y^2)/2", "--grid", "32x32",
               "--domain", "-5,5,-5,5", "--count", "4", "--solver-tol", "1e-16"]


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def analyze(tmp_path, *extra):
    argv = ["analyze", "--out", str(tmp_path), *extra]
    return cli.main(argv)


def dumped_fields(*args, **kwargs):
    """Every field, psi included, that `cli.diagnose(*args, **kwargs)` hands
    to a stand-in `out`, by dump name; None where the state lacks it."""
    fields = {}
    cli.diagnose(*args, **kwargs, out=SimpleNamespace(add=fields.update))
    return fields


_PARSER = cli.build_parser()
_COMMANDS = next(a for a in _PARSER._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
# (subcommand, option string) for every option of every subcommand that
# takes one value
ONE_VALUE = [(cmd, opt) for cmd, p in _COMMANDS.items() for a in p._actions
             if a.nargs is None for opt in a.option_strings]
OPTION_STRINGS = sorted({o for p in _COMMANDS.values() for o in p._option_string_actions})


def parsed(cmd, opt, *tokens):
    """The options of `cmd` that `tokens` give, as a dict, or the usage
    error's message. Unless `opt` is --psi or --builtin, the state comes
    from --builtin, so that a required option is not what fails."""
    base = [] if cmd == "solve" or opt in ("--psi", "--builtin") else ["--builtin", "ho_ground"]
    try:
        return vars(_PARSER.parse_args([cmd, *base, *tokens]))
    except ValueError as err:
        return str(err)


def assert_refused(out_dir, error):
    """A run refused with exit 1 leaves its error report, and no other
    file, in out_dir."""
    rep = load_report(out_dir)
    assert rep["error"] == error
    check_report(rep, out_dir, 1)


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

    def test_misspelt_option_is_named_without_a_state(self, tmp_path, capsys):
        assert cli.main(["analyze", "--ps", "exp(x+i*y)", "--out", str(tmp_path)]) == 1
        assert "error: unrecognized arguments: --ps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["analyze", "convergence"])
    def test_missing_state_exit_one_without_report(self, cmd, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = [cmd, "--grid", "9x9"] + (["--out", str(out)] if cmd == "analyze" else [])
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: madelab {cmd} ")
        assert err.endswith("error: one of the arguments --psi --builtin is required\n")
        assert list(tmp_path.iterdir()) == []

    def test_psi_with_builtin_refused(self, tmp_path, capsys):
        assert cli.main(["analyze", "--psi", "x", "--builtin", "ho_ground",
                         "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: argument --builtin: not allowed with argument --psi\n")
        assert list(tmp_path.iterdir()) == []

    def test_nonconvergence_exit_three(self, tmp_path, capsys):
        # ARPACK runs, so --max-iter binds
        code = cli.main([
            "solve", "--potential", QUARTIC, "--grid", "96x96",
            "--domain", "0,1,0,1", "--count", "10",
            "--max-iter", "2", "--out", str(tmp_path),
        ])
        assert code == 3
        rep = load_report(tmp_path)
        assert "error" in rep
        check_report(rep, tmp_path, 3)

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
        code = cli.main([*UNCONVERGED, "--out", str(tmp_path)])
        assert code == 3
        rep = load_report(tmp_path)
        assert len(rep["energies"]) == len(rep["solver_residuals"]) == 4
        assert all(0 < r < 1e-10 for r in rep["solver_residuals"])
        assert "eigenpair 0 residual" in rep["error"]
        check_report(rep, tmp_path, 3)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--builtin", "ho_ground", "--energy", "1", "--potential", "x^2/2 + i*x"],
        ["solve", "--count", "1", "--potential", "(x^2+y^2)/2 + i*x"],
        ["convergence", "--builtin", "ho_ground", "--energy", "1", "--levels", "2",
         "--potential", "x^2/2 + i*x"],
        # just beyond the bound 8 eps max |Re V| ~ 2.5e-14
        ["solve", "--count", "1", "--potential", "(x^2+y^2)/2 + i*1e-13"],
    ])
    def test_complex_potential_exit_one(self, argv, tmp_path, monkeypatch, capsys):
        # H needs V real: the imaginary part is refused, not dropped
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--grid", "33x33", "--domain", "-4,4,-4,4"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: potential must be real: max |Im V| is ")
        assert out == ""
        if argv[0] == "convergence":  # no --out, so no report
            assert not list(tmp_path.rglob("report.json"))
        else:
            assert_refused(tmp_path / "madelab-out", err[len("error: "):-1])

    @pytest.mark.parametrize("V", ["(x^2+y^2)/2*exp(2*i*pi)", "(x^2+y^2)/2 + i*1e-14"])
    def test_potential_rounding_is_accepted(self, V, tmp_path):
        # within the bound, and Re V is bit-equal to the real potential's
        argv = ["solve", "--count", "3", "--grid", "33x33", "--domain", "-4,4,-4,4"]
        assert cli.main([*argv, "--potential", V, "--out", str(tmp_path / "c")]) == 0
        assert cli.main([*argv, "--potential", "(x^2+y^2)/2", "--out", str(tmp_path / "r")]) == 0
        assert load_report(tmp_path / "c")["energies"] == load_report(tmp_path / "r")["energies"]

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
        assert_refused(tmp_path, "potential is non-finite at every cell")

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
        if argv[0] == "convergence":
            assert not list(tmp_path.rglob("report.json"))
        else:
            assert_refused(tmp_path / "madelab-out", "potential is non-finite at every cell")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--psi", "exp(-(x^2+y^2))", "--tol", "inf"],
        ["solve", "--potential", "(x^2+y^2)/2", "--count", "3", "--combine", "0,1:1,i",
         "--solver-tol", "inf", "--grid", "33x33", "--domain", "-5,5,-5,5"],
        ["analyze", "--builtin", "ho_ground", "--energy", "nan", "--potential", "x"],
        ["analyze", "--builtin", "ho_ground", "--grid-raw", "9,9,nan,0,0.1,0.1"],
        ["analyze", "--builtin", "ho_ground", "--domain", "-1e308,1e308,-1,1"],
        ["analyze", "--builtin", "plane_wave", "--k1", "inf"],
        ["analyze", "--builtin", "gauss_real", "--sigma", "nan"],
        ["analyze", "--builtin", "ho_ground", "--hbar", "nan"],
        ["analyze", "--builtin", "ho_ground", "--energy", "inf", "--potential", "x"],
    ])
    def test_non_finite_numbers_exit_one(self, argv, tmp_path, capsys):
        # each is refused for what it is, not as a vanishing psi or a verdict
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith("error:") and "finite" in first
        assert rest == []
        assert_refused(tmp_path, first[len("error: "):])
        # a non-finite float option is echoed as a string strict JSON holds
        config = load_report(tmp_path)["config"]
        for flag, value in zip(argv, argv[1:]):
            if value in ("nan", "inf"):
                assert config[flag[2:].replace("-", "_")] == value

    @pytest.mark.parametrize("argv, err", [
        # the norms overflow: strict JSON cannot hold them, so the report holds
        # only the error and no dump is written
        (["--builtin", "ho_ground", "--energy", "1e308", "--potential", "x"],
         "error: the interior rms norm of qhjResidual overflows\n"),
        (["--psi", "exp(x+i*y)", "--mass", "1e-300"],
         "error: the interior rms norm of divJ overflows\n"),
        (["--builtin", "plane_wave", "--k1", "1e200"],
         "error: the plane_wave energy overflows: it must be finite\n"),
        (["--builtin", "ho_ground", "--grid-raw", "17,17,0,0,1e-300,1e-300"],
         "error: grid spacings d must be positive with d^2 and 1/d^2 finite\n"),
        (["--psi", "exp(i*x)", "--grid-raw", "17,17,0,0,1e200,1e200"],
         "error: grid spacings d must be positive with d^2 and 1/d^2 finite\n"),
        # z^l overflows at every cell but those it underflows to nodes
        (["--builtin", "ho_vortex", "--l", "100000"],
         "error: only 0 valid cells remain after masking nodes and non-finite cells; "
         "no interior to analyze\n"),
        # finite gradients of ~1e154 whose squares overflow
        (["--psi", "x", "--grid-raw", "17,17,-8.5e-154,-8.5e-154,1e-154,1e-154"],
         "error: the interior rms norm of crStrict overflows\n"),
        # finite currents of ~1e307 whose divergence overflows
        (["--psi", "exp(i*3e153*x)+0.5", "--grid-raw", "17,17,1e-154,1e-154,1e-154,1e-154"],
         "error: the interior rms norm of orth overflows\n"),
    ], ids=["qhj-norm", "divJ-norm", "plane-wave-energy", "tiny-spacing", "huge-spacing",
            "vortex-l-100000", "gradient-squares", "divergence"])
    def test_overflow_refused_quietly_before_output(self, argv, err, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["analyze", *argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == err
        assert_refused(tmp_path, err[len("error: "):-1])

    def test_density_overflow_leaves_div_j_masked_quietly(self, tmp_path):
        # rho = e^{2S} overflows past x ~ 5 while psi, its gradient and
        # every norm stay finite: the cells go invalid without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = analyze(tmp_path, "--psi", "exp(x)*1e300*(1+i*y)", "--grid", "16x16",
                           "--domain", "0,30,0,1")
        assert code == 0 and load_report(tmp_path)["norms"]["divJ"] == "masked"

    def test_overflowing_e2i_on_a_flat_amplitude_is_quiet(self, tmp_path):
        # I reaches ~400, so e^{2I} overflows where gradS is exactly 0: the
        # product inf * 0 must drop out of J~ without a warning (the suite
        # turns warnings into errors)
        assert analyze(tmp_path, "--builtin", "plane_wave", "--k1", "100",
                       "--grid", "300x9", "--domain", "-4,4,-1,1") == 0

    # every cell is valid, but none lies two rings in, where the norms are taken
    @pytest.mark.parametrize("grid, cells", [("4x4", 16), ("4x9", 36)])
    def test_no_cell_two_rings_in_exit_one(self, grid, cells, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", grid) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: none of the {cells} cells with a valid Laplacian lies two rings in "
            "from the grid boundary; no interior to analyze\n")
        assert_refused(tmp_path, err[len("error: "):-1])

    def test_out_of_memory_exit_one(self, tmp_path, capsys, monkeypatch):
        def decompose(*args):
            raise MemoryError("Unable to allocate 2.98 GiB for an array")

        monkeypatch.setattr(cli.madelung, "decompose", decompose)
        assert analyze(tmp_path, "--psi", "x") == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 2.98 GiB for an array\n"
        assert "Traceback" not in err
        assert_refused(tmp_path, "out of memory: Unable to allocate 2.98 GiB for an array")

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

    # a dash, then anything; or an option string with more after it
    @settings(max_examples=15)
    @given(st.one_of(st.text("-=.e1x(+) ", max_size=8).map("-".__add__),
                     st.tuples(st.sampled_from(OPTION_STRINGS),
                               st.text("-=x1", max_size=3)).map("".join)))
    def test_dash_value_reads_alike_with_or_without_equals(self, value):
        for cmd, opt in ONE_VALUE:
            if value.partition("=")[0] not in _COMMANDS[cmd]._option_string_actions:
                assert parsed(cmd, opt, opt, value) == parsed(cmd, opt, f"{opt}={value}")

    def test_option_string_as_a_value_expects_one_argument(self):
        # every option string after every option; with "=1" after --grid
        for cmd, opt in ONE_VALUE:
            for other in _COMMANDS[cmd]._option_string_actions:
                for token in [other, f"{other}=1"] if opt == "--grid" else [other]:
                    assert parsed(cmd, opt, opt, token).endswith(
                        f"argument {opt}: expected one argument"), (cmd, opt, token)

    def test_stray_token_before_the_command(self, tmp_path, capsys):
        assert cli.main(["-x", "analyze", "--psi", "1", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--ps", "exp(x+i*y)"],
        ["analyze", "--builtin", "ho_ground", "--dom", "0,1,0,1"],
        ["analyze", "--builtin", "ho_ground", "--node-thr", "0.1"],
    ])
    def test_options_are_spelled_in_full(self, argv, tmp_path, capsys):
        # a prefix of an option string is a value, never an abbreviation
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_grid(self, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "1", "--grid", "64") == 1
        assert analyze(tmp_path, "--psi", "1", "--domain", "1,0,0,1") == 1

    # a bad int, a bad float, and the wrong count of fields
    @pytest.mark.parametrize("raw", ["a,5,0,0,1,1", "5,5,0,0,1,1e", "5,5,0,0,1"])
    def test_malformed_grid_raw_names_the_flag(self, raw, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "x", "--grid-raw", raw) == 1
        assert capsys.readouterr().err == (
            f"error: bad --grid-raw '{raw}': expected NX,NY,X0,Y0,DX,DY\n")


class TestReport:
    def test_structure(self, tmp_path):
        analyze(tmp_path, "--builtin", "plane_wave", "--k1", "2", "--k2", "3",
                "--potential", "0")
        rep = load_report(tmp_path)
        assert rep["schema"] == "madelab-report/2"
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

    @pytest.mark.parametrize("psi", ["x+i*y", "(x+i*y)^2"])
    def test_p3_holds_on_analytic_vortex_states(self, tmp_path, psi):
        # psi = z^l is analytic, so the bracket defectA vanishes to rounding
        # and "div J~ = 0" holds, cores and all: a P3 side formed from the
        # local phase steps must not read the core's stencil error as a
        # failure (at 64^2 it reaches ~1e3 beside a tolerance of ~0.1)
        assert analyze(tmp_path, "--psi", psi, "--grid", "64x64") == 2
        rep = load_report(tmp_path)
        check_report(rep, tmp_path, 2)
        assert rep["properties"]["P3"]["status"] == "holds"
        assert rep["norms"]["defectA"]["max"] <= rep["tolerance"]


class TestVortexSummary:
    @staticmethod
    def from_unwrap_error(m, psi):
        """The summary recomputed from the error `unwrap_phase` raises on
        the valid cells."""
        try:
            unwrap_phase(ComplexField(m.spec, psi.values, m.S.mask))
            plaquettes, holes = [], []
        except VortexError as err:
            plaquettes, holes = err.plaquettes, err.holes
        return {
            "plaquettes": [list(t) for t in plaquettes[:50]],
            "holes": [list(t) for t in holes[:50]],
            "count": len(plaquettes),
            "total_winding": int(sum(w for _, _, w in plaquettes + holes)),
            "unwrapped": m.I_unwrapped is not None,
        }

    def test_noise_phase_summary_is_fast(self):
        spec = GridSpec(129, 129, -4.0, -4.0, 0.0625, 0.0625)
        theta = np.random.default_rng(0).uniform(-np.pi, np.pi, spec.shape)
        psi = ComplexField(spec, np.exp(1j * theta))
        m = decompose(psi)
        assert len(m.vortex_plaquettes()) > 5000
        start = time.perf_counter()
        got = cli.vortex_summary(m)
        assert time.perf_counter() - start < 1.0
        assert got == self.from_unwrap_error(m, psi)

    def test_hidden_vortex_reports_holes(self):
        spec = GridSpec(65, 65, -4.0, -4.0, 0.125, 0.125)
        psi, _ = builtin_state("ho_vortex", {"l": 1}, spec, PhysicalParams())
        m = decompose(psi, node_threshold=0.3)
        got = cli.vortex_summary(m)
        assert got["count"] == 0 and got["holes"] == [[31, 31, 1]]
        assert got["total_winding"] == 1 and got["unwrapped"] is False
        assert got == self.from_unwrap_error(m, psi)

    def test_hidden_core_on_the_cli(self, tmp_path):
        # the core and its ring fall under the node threshold: no plaquette
        # winds, and the hole round them carries the charge
        code = analyze(tmp_path, "--builtin", "ho_vortex", "--l", "1",
                       "--node-threshold", "0.3", "--domain", "-4,4,-4,4")
        v = load_report(tmp_path)["vortices"]
        assert code == 2
        assert v == {"plaquettes": [], "holes": [[31, 31, 1]], "count": 0,
                     "total_winding": 1, "unwrapped": False}


class TestGlobalPhase:
    """ψ and ψ·e^{0.7i} through `analyze`: the vortices are the same, and
    where the phase unwraps, the I dumps differ by 0.7 mod 2π."""

    @staticmethod
    def run_both(tmp_path, psi, *extra):
        out = []
        for name, expr in (("plain", psi), ("turned", f"({psi})*exp(i*0.7)")):
            code = analyze(tmp_path / name, "--psi", expr, "--dump", "bin", *extra)
            out.append((code, load_report(tmp_path / name), tmp_path / name / "I.mfld"))
        return out

    @pytest.mark.parametrize("psi, extra", [
        pytest.param("exp(x+i*y)*exp(-0.1*(x^2+y^2))", (), id="smooth"),
        pytest.param("(x+i*y)*exp(-(x^2+y^2)/2)", ("--grid", "64x64"), id="vortex"),
        pytest.param("(x+i*y)*(x-1-i*y)*exp(-(x^2+y^2))", ("--node-threshold", "0.05"),
                     id="hidden-pair"),
        pytest.param("(x-y)*exp(-(x^2+y^2)/2)", (), id="nodal-line"),
        # on these cells the steps across the line come within rounding of pi
        pytest.param("(x-y)*exp(-(x^2+y^2)/2)", ("--grid", "40x41"), id="nodal-line-off-grid"),
        pytest.param("(x^2+y^2-1)*exp(-(x^2+y^2)/2)", (), id="nodal-circle"),
    ])
    def test_vortices_and_unwrapped_phase_follow_the_phase(self, tmp_path, psi, extra):
        (code0, rep0, path0), (code1, rep1, path1) = self.run_both(tmp_path, psi, *extra)
        assert code0 == code1 and rep0["vortices"] == rep1["vortices"]
        if rep0["vortices"]["unwrapped"]:
            I0, I1 = fieldio.read_binary(path0), fieldio.read_binary(path1)
            assert np.array_equal(I0.mask, I1.mask)
            d = np.mod(I1.values - I0.values - 0.7 + np.pi, 2 * np.pi) - np.pi
            assert np.max(np.abs(d[I0.mask])) < 1e-12

    def test_core_on_an_edge_keeps_count_and_charge(self, tmp_path):
        # the -1 core lies exactly on the edge (32,37)-(32,38): which of its
        # two plaquettes winds depends on the last bits of the phase, so
        # only the count, the total and the holes are invariant
        (code0, rep0, _), (code1, rep1, _) = self.run_both(
            tmp_path, "(x+i*y)^2*(x-i*y-0.5)*exp(-(x^2+y^2))")
        v0, v1 = rep0["vortices"], rep1["vortices"]
        assert code0 == code1 == 2
        for key in ("count", "total_winding", "holes"):
            assert v0[key] == v1[key]


class TestDumps:
    def test_bin_round_trip(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "17x17", "--dump", "bin")
        f = fieldio.read_binary(tmp_path / "S.mfld")
        assert f.spec.nx == 17
        real, imag = (fieldio.read_binary(tmp_path / f"psi.mfld.{part}") for part in ("re", "im"))
        assert real.spec == imag.spec == f.spec
        # S from dump matches ln|psi|
        psi = real.values + 1j * imag.values
        assert np.allclose(f.values[f.mask], np.log(np.abs(psi))[f.mask])

    def test_split_mask_unwraps_every_component(self, tmp_path):
        # the nodal line x = 1/2 splits the valid cells in two; each half is
        # unwrapped from its own largest |psi|
        code = analyze(tmp_path, "--builtin", "box_mode", "--n1", "2", "--n2", "1",
                       "--domain", "0,1,0,1", "--dump", "bin")
        assert code == 0 and load_report(tmp_path)["vortices"]["unwrapped"] is True
        S = fieldio.read_binary(tmp_path / "S.mfld")
        I = fieldio.read_binary(tmp_path / "I.mfld")
        assert np.array_equal(I.mask, S.mask) and S.mask.sum() == 4160

    def test_csv_dump(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9", "--dump", "csv")
        f = fieldio.read_csv(tmp_path / "U.csv")
        assert f.spec.nx == 9

    def test_gnuplot_dump_keeps_psi_binary(self, tmp_path):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9", "--dump", "gnuplot")
        assert (tmp_path / "orth.dat").exists()
        assert (tmp_path / "psi.dat.re").read_bytes()[:5] == b"MFLD1"

    @pytest.mark.parametrize("fmt", ["bin", "csv", "gnuplot"])
    @pytest.mark.parametrize("state,code", [
        # a winding plaquette right below the masked nodal row y = 2/3
        (["--psi", "(x-0.1+i*(y-0.15))*(y-2/3)", "--grid", "16x17"], 2),
        # the hidden pair: two charged holes, no winding plaquette
        (["--psi", "(x+i*y)*(x-1-i*y)*exp(-(x^2+y^2))", "--node-threshold", "0.05",
          "--grid", "33x31"], 2),
        # one charged hole whose first row run is three cells wide
        (["--psi", "(x+i*y)*(x-1-i*y)*exp(-(x^2+y^2))", "--node-threshold", "0.1",
          "--grid", "24x23"], 2),
        # a core masked in a region that reaches the grid edge is no hole: the
        # valid cells do not enclose it, and they unwrap
        (["--psi", "x-2.5+i*y", "--node-threshold", "0.1", "--grid", "16x17"], 0),
    ])
    def test_vortex_lists_agree_with_the_s_dump(self, tmp_path, fmt, state, code):
        assert analyze(tmp_path, *state, "--dump", fmt) == code
        report = load_report(tmp_path)
        v = report["vortices"]
        assert bool(v["plaquettes"] or v["holes"]) == (code == 2)
        check_report(report, tmp_path, code)

    def test_env_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MADELUNG_OUT", str(tmp_path / "envdir"))
        assert cli.main(["analyze", "--builtin", "ho_ground", "--grid", "9x9"]) == 0
        assert (tmp_path / "envdir" / "report.json").exists()


class TestDumpJobs:
    """`_dump_jobs` names a field's files by its type, and the parts it
    splits a field into are views of the field's arrays, not copies."""

    @pytest.fixture(scope="class")
    def fields(self):
        # the box mode's rim lies below the node threshold, so its fields hold
        # NaN there, and a ScalarField built from one of their arrays copies it
        n = 15
        h = 1 / (n + 1)
        spec = GridSpec(n, n, h, h, h, h)
        psi, _ = catalog.builtin_state("box_mode", {"n1": 1, "n2": 1}, spec, PhysicalParams())
        return dumped_fields(psi, PhysicalParams(), 0.2)

    @pytest.mark.parametrize("fmt", ["bin", "csv", "gnuplot"])
    def test_parts_are_views(self, fmt, fields, tmp_path):
        assert not fields["S"].mask[0].any()
        ext, parts = cli._DUMP[fmt][0], 0
        for name, f in fields.items():
            jobs = cli._dump_jobs({name: f}, tmp_path, fmt)
            sources, names = [], ([] if f is None else [f"{name}{ext}"])
            if isinstance(f, ComplexField):
                sources, names = [f.values] * 2, [f"{name}{ext}.re", f"{name}{ext}.im"]
            elif isinstance(f, VectorField):
                sources, names = [f.vx, f.vy], [f"{name}.x{ext}", f"{name}.y{ext}"]
            assert [path.name for *_, path in jobs] == names
            for (_, part, _), source in zip(jobs, sources):
                assert isinstance(part, fieldio.Part)
                assert np.shares_memory(part.values, source)
                parts += 1
        # psi, gradS, gradI, J and Jtilde; no V and E, so no qhjResidual file
        assert parts == 10 and fields["qhjResidual"] is None

    def test_none_gives_no_job(self, tmp_path):
        assert cli._dump_jobs({"I": None, "Jtilde": None}, tmp_path, "csv") == []


class TestStaleDumps:
    """A reused --out holds the latest run's dumps only: the previous
    report and the dumps it listed are deleted before this run's first dump
    begins, so even a killed run leaves none of them."""

    @staticmethod
    def dumps(out):
        return sorted(p.name for p in out.iterdir() if p.name != "report.json")

    def test_vortex_run_leaves_no_phase_dump(self, tmp_path):
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "17x17") == 0
        assert "I.mfld" in self.dumps(tmp_path)
        assert analyze(tmp_path, "--builtin", "ho_vortex", "--grid", "17x17") == 2
        check_report(load_report(tmp_path), tmp_path, 2)
        assert "I.mfld" not in self.dumps(tmp_path)

    def test_csv_run_leaves_no_binary_dump(self, tmp_path):
        (tmp_path / "notes.csv").write_text("kept\n")
        analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "17x17")
        analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "17x17", "--dump", "csv")
        names = self.dumps(tmp_path)
        assert not [n for n in names if ".mfld" in n]
        assert (tmp_path / "notes.csv").read_text() == "kept\n"
        assert sorted(e["path"] for e in load_report(tmp_path)["manifest"]) == \
            [n for n in names if n != "notes.csv"]

    def test_no_convergence_leaves_no_dump(self, tmp_path, capsys):
        analyze(tmp_path, "--builtin", "ho_ground", "--grid", "17x17")
        code = cli.main([*UNCONVERGED, "--out", str(tmp_path)])
        assert code == 3 and self.dumps(tmp_path) == []
        check_report(load_report(tmp_path), tmp_path, 3)

    def test_failed_dump_leaves_no_report(self, tmp_path, capsys):
        # the old report would name digests that the files no longer have,
        # and with no report listing the old dumps no later run would delete
        # them: they go before the first dump, and the failed run deletes
        # its own files
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "17x17") == 0
        (tmp_path / "U.mfld").unlink()
        (tmp_path / "U.mfld").mkdir()
        assert analyze(tmp_path, "--psi", "exp(2*x+i*y)", "--grid", "17x17") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "U.mfld" in err
        assert self.dumps(tmp_path) == ["U.mfld"]  # the blocking directory stays
        assert not (tmp_path / "report.json").exists()
        (tmp_path / "U.mfld").rmdir()
        assert analyze(tmp_path, "--builtin", "ho_vortex", "--grid", "17x17") == 2
        check_report(load_report(tmp_path), tmp_path, 2)

    def test_old_report_goes_before_the_first_dump(self, tmp_path, monkeypatch):
        # a run stopped while dumping must leave no report naming digests
        # that the files no longer have, and none of the dumps it listed,
        # which no later run would delete
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "9x9") == 0
        listed = [e["path"] for e in load_report(tmp_path)["manifest"]]
        ext, write = cli._DUMP["bin"]
        calls = []

        def checked(field, path):
            if not calls:
                assert not (tmp_path / "report.json").exists()
                assert not [n for n in listed if (tmp_path / n).exists()]
            calls.append(path.name)
            return write(field, path)

        monkeypatch.setitem(cli._DUMP, "bin", (ext, checked))
        assert analyze(tmp_path, "--psi", "exp(2*x+i*y)", "--grid", "9x9") == 0
        assert calls[:2] == ["psi.mfld.re", "psi.mfld.im"] and len(calls) == 23
        check_report(load_report(tmp_path), tmp_path, 0)

    def test_killed_run_leaves_no_old_dump(self, tmp_path):
        # a killed run cleans nothing up: the last run's dumps must be gone
        # before its first dump begins; it ends in its third dump write
        assert analyze(tmp_path, "--builtin", "ho_vortex", "--grid", "17x17") == 2
        code = ("import os, sys\n"
                "from madelab import cli\n"
                "ext, write = cli._DUMP['bin']\n"
                "calls = []\n"
                "def killed(field, path):\n"
                "    calls.append(path)\n"
                "    if len(calls) == 3:\n"
                "        os._exit(137)\n"
                "    return write(field, path)\n"
                "cli._DUMP['bin'] = (ext, killed)\n"
                "sys.exit(cli.main(['analyze', '--psi', 'exp(x+i*y)', '--grid', '17x17',"
                f" '--out', {str(tmp_path)!r}]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 137, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["psi.mfld.im", "psi.mfld.re"]

    def test_refused_run_replaces_the_old_report(self, tmp_path, capsys):
        # exit 1 must not leave the last run's report and dumps posing as
        # its own output
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "17x17") == 0
        argv = ["solve", "--potential", "(x^2+y^2)/2 + i*x", "--grid", "17x17"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert_refused(tmp_path, err[len("error: "):-1])
        assert load_report(tmp_path)["config"]["potential"] == argv[2]

    @pytest.mark.parametrize("entry", ["../x", "report.json", ".", "..", "", 7, None])
    def test_only_bare_dump_names_are_deleted(self, tmp_path, entry):
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "x").write_text("outside\n")
        report = {"manifest": [{"path": entry}, {"path": "old.mfld"}]}
        (out / "report.json").write_text(json.dumps(report))
        (out / "old.mfld").write_text("")
        assert analyze(out, "--psi", "exp(x+i*y)", "--grid", "9x9") == 0
        assert (tmp_path / "x").read_text() == "outside\n"
        assert not (out / "old.mfld").exists()
        assert load_report(out)["schema"] == "madelab-report/2"

    @pytest.mark.parametrize("old", ["{", "[]", '{"manifest": 3}', '{"manifest": ["a"]}'])
    def test_unreadable_old_report_is_skipped(self, tmp_path, old):
        (tmp_path / "report.json").write_text(old)
        (tmp_path / "a").write_text("")
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "9x9") == 0
        assert (tmp_path / "a").exists()


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
        # the old report cannot be deleted, so no dump may begin: the
        # writer thread starts only once that report is gone
        start = threading.active_count()
        (tmp_path / "report.json").mkdir()
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9",
                       "--dump", "bin") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ") and "report.json" in err
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert threading.active_count() == start

    @staticmethod
    def disk_full(report, out_dir):
        (out_dir / "report.json").write_text("{")
        raise OSError(28, "No space left on device")

    def test_failed_report_write_leaves_no_dump(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "write_report", self.disk_full)
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9") == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_partial_report_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # exit 3 publishes as exit 0 and 2 do: the old report's dumps go,
        # and so does the half-written partial report
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9") == 0
        monkeypatch.setattr(cli, "write_report", self.disk_full)
        assert cli.main([*UNCONVERGED, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_error_report_write_leaves_nothing(self, tmp_path, monkeypatch, capsys):
        # a refusal publishes as every other run does
        assert analyze(tmp_path, "--builtin", "ho_ground", "--grid", "9x9") == 0
        monkeypatch.setattr(cli, "write_report", self.disk_full)
        assert analyze(tmp_path, "--psi", "0", "--grid", "9x9") == 1
        refusal, failure = capsys.readouterr().err.splitlines()
        assert refusal.startswith("error: ") and "cannot write output" not in refusal
        assert failure == "error: cannot write output: [Errno 28] No space left on device"
        assert list(tmp_path.iterdir()) == []


def _affinity(monkeypatch, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_dump(fields, out_dir, fmt):
    """The manifest of `fields` dumped in text format `fmt` by a `dumps.Split`."""
    jobs, split = cli._dump_jobs(fields, out_dir, fmt), dumps.Split()
    split.put(jobs)
    return cli.dump_fields(jobs, split)


class TestSplitDump:
    """`dumps.Split` shares the text dumps out over the CPUs in the affinity
    set; the split must not show in the files, the manifest or stdout."""

    @pytest.fixture(scope="class")
    def fields(self):
        spec = GridSpec(19, 13, -1.0, -0.8, 0.1, 0.125)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp((1j - 0.5) * (X + 2 * Y) - X**2))
        V = ScalarField(spec, 0.5 * (X**2 + Y**2))
        return dumped_fields(psi, PhysicalParams(), 0.01, V=V, E=1.0)

    @pytest.mark.parametrize("fmt", ["csv", "gnuplot"])
    def test_same_files_and_manifest_for_any_worker_count(self, fmt, fields, tmp_path,
                                                          monkeypatch):
        assert fields["I"] is not None and fields["qhjResidual"] is not None
        real_fork, forks = os.fork, []

        def counting_fork():
            # never fork beside another thread: the child would hold a copy
            # of its locks in whatever state they were in
            assert threading.active_count() == 1
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        results = []
        for workers in (1, 2, 3):
            _affinity(monkeypatch, workers)
            forks.clear()
            out = tmp_path / f"w{workers}"
            out.mkdir()
            manifest = _split_dump(fields, out, fmt)
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

    def test_one_worker_starts_no_child(self, fields, tmp_path, monkeypatch):
        _affinity(monkeypatch, 1)

        def no_fork():
            raise AssertionError("forked with one worker")

        monkeypatch.setattr(os, "fork", no_fork)
        manifest = _split_dump(fields, tmp_path, "csv")
        assert len(manifest) == len(list(tmp_path.iterdir()))

    def test_no_affinity_call_means_one_worker(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert dumps.worker_count(19) == 1

    def test_worker_count_is_capped_by_jobs(self, monkeypatch):
        _affinity(monkeypatch, 64)
        assert dumps.worker_count(19) == 19
        assert dumps.worker_count(0) == 1  # never below one: a split given no job forks none

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


class TestStreamDump:
    """With `--dump bin` one writer thread writes each field as soon as it
    is final, while the diagnosis goes on; that must not show in the files
    or the manifest, and the thread must not outlive the run."""

    @staticmethod
    def serial(fields, out_dir):
        """The binary dumps of `fields` written one by one as whole arrays,
        once the run is over, and their manifest."""
        manifest = []
        for _, f, path in cli._dump_jobs(fields, out_dir, "bin"):
            s = f.spec
            values = ScalarField(s, f.values).values
            data = b"MFLD1" + struct.pack("<QQdddd", s.nx, s.ny, s.x0, s.y0, s.dx, s.dy) \
                + np.ascontiguousarray(values, "<f8").tobytes()
            path.write_bytes(data)
            manifest.append({"path": path.name, "sha256": hashlib.sha256(data).hexdigest()})
        return manifest

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--psi", "exp(x+i*y)*exp(-0.1*(x^2+y^2))", "--potential", "x",
          "--energy", "1", "--grid", "33x31"], 0),
        (["analyze", "--builtin", "ho_vortex", "--grid", "32x32"], 2),
        (["solve", "--potential", "(x^2+y^2)/2", "--count", "3", "--combine", "1,2:1,i",
          "--grid", "32x32", "--domain", "-5,5,-5,5"], 2),
    ], ids=["smooth", "vortex", "solve"])
    def test_same_files_and_manifest_as_a_serial_write(self, argv, code, tmp_path, monkeypatch):
        # every field that `diagnose` hands to the run's `out`
        added, add = {}, cli._Output.add

        def kept(out, fields):
            added.update(fields)
            add(out, fields)

        monkeypatch.setattr(cli._Output, "add", kept)
        out, serial = tmp_path / "stream", tmp_path / "serial"
        serial.mkdir()
        assert cli.main([*argv, "--out", str(out)]) == code
        report = load_report(out)
        check_report(report, out, code)
        manifest = self.serial(added, serial)
        assert report["manifest"] == manifest
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"} \
            == {p.name: p.read_bytes() for p in serial.iterdir()}

    def test_interrupt_joins_the_writer_and_leaves_nothing(self, tmp_path, monkeypatch):
        # stopped after the dumps began: the old report, its dumps and the
        # files this run began are all gone, and so is the thread
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "17x17") == 0
        start = threading.active_count()

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.analytic, "norm_table", interrupted)
        with pytest.raises(KeyboardInterrupt):
            analyze(tmp_path, "--psi", "exp(2*x+i*y)", "--grid", "17x17")
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == start

    def test_no_thread_outlives_a_run(self, tmp_path, monkeypatch, capsys):
        start = threading.active_count()
        real_fork, forks = os.fork, []

        def counting_fork():
            assert threading.active_count() == start
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        _affinity(monkeypatch, 2)
        base = ["--psi", "exp(x+i*y)", "--grid", "17x17"]
        assert analyze(tmp_path / "ok", *base) == 0
        (tmp_path / "blocked").mkdir()
        (tmp_path / "blocked" / "U.mfld").mkdir()
        assert analyze(tmp_path / "blocked", *base) == 1
        assert analyze(tmp_path / "refused", *base, "--mass", "1e-300") == 1
        assert not forks  # binary dumps never fork
        assert analyze(tmp_path / "csv", *base, "--dump", "csv") == 0
        assert len(forks) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cannot write output: ") and "U.mfld" in err[0]
        assert err[1] == "error: the interior rms norm of divJ overflows"
        assert threading.active_count() == start
        assert_refused(tmp_path / "refused", err[1][len("error: "):])


# the ids are the names the two dumpers had in `cli`, kept so that the
# tests keep theirs
@pytest.mark.parametrize("dumper", [dumps.Writer, dumps.Split], ids=["_Writer", "_Split"])
class TestDumpers:
    """Both dumpers keep one contract: `put` jobs as their fields become
    final, `wait` for every digest by path, `stop` on failure. `Split`
    runs with two workers, so one child is forked when it writes."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        _affinity(monkeypatch, 2)
        start = threading.active_count()
        yield
        assert threading.active_count() == start
        _assert_no_child_left()

    def test_batches_come_back_once_per_path(self, dumper):
        # the owner hands jobs over in batches while the writer thread takes
        # them one by one; a short switch interval interleaves the two often
        calls = []

        def writer(field, path):
            calls.append(path)
            return f"digest-of-{path}"

        paths = [Path(str(j)) for j in range(2000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            d = dumper()
            for k in range(0, 2000, 100):
                d.put([(writer, None, path) for path in paths[k:k + 100]])
            done = d.wait()
        finally:
            sys.setswitchinterval(interval)
        assert done == {path: f"digest-of-{path}" for path in paths}
        # every job once, in order; a split's children write the odd ones
        assert calls == (paths if dumper is dumps.Writer else paths[0::2])

    # job 2 is the parent's share of a split, job 3 its child's; when both
    # fail, the earlier in job order is raised
    @pytest.mark.parametrize("failing", [pytest.param((2,), id="2"), pytest.param((3,), id="3"),
                                         pytest.param((2, 3), id="2+3")])
    def test_failed_job_raises_from_wait(self, dumper, failing, tmp_path):
        def writer(field, path):
            if path.name in {f"f{j}" for j in failing}:
                raise OSError(28, "No space left on device", str(path))
            return f"digest-of-{path.name}"

        d = dumper()
        d.put([(writer, None, tmp_path / f"f{j}") for j in range(3)])
        d.put([(writer, None, tmp_path / f"f{j}") for j in range(3, 6)])
        with pytest.raises(OSError, match=f"No space left on device: '.*f{failing[0]}'"):
            d.wait()

    def test_stop_after_put_leaves_nothing_running(self, dumper, tmp_path):
        started, release = threading.Event(), threading.Event()

        def writer(field, path):
            # the first job holds the writer thread until the test releases it
            started.set()
            assert release.wait(10)
            path.write_text(field)
            return "digest"

        d = dumper()
        d.put([(writer, str(j), tmp_path / f"f{j}") for j in range(5)])
        if dumper is dumps.Writer:
            assert started.wait(10)
        # `stop` drops the queued jobs at once, then waits for the one under way
        releaser = threading.Timer(0.1, release.set)
        releaser.start()
        d.stop()
        releaser.join()
        # the job under way is finished and the rest dropped; a split never
        # began, so it wrote nothing
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == (["f0"] if dumper is dumps.Writer else [])

    def test_no_job_starts_no_thread(self, dumper):
        start = threading.active_count()
        d = dumper()
        assert threading.active_count() == start
        # `_Output.publish` never waits on a dumper given no job, but either may
        assert d.wait() == {}
        d.stop()


class TestTracedSeams:
    """The benchmark's tracer times `cli.dump_fields` and
    `cli.write_report` by name, so the CLI must reach both through the
    module: once each per published run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("dump_fields", "write_report"):
            def counted(*args, name=name, fn=getattr(cli, name)):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(cli, name, counted)
        return calls

    @pytest.mark.parametrize("fmt", ["bin", "csv", "gnuplot"])
    def test_each_once_per_published_run(self, fmt, calls, tmp_path):
        assert analyze(tmp_path, "--psi", "exp(x+i*y)", "--grid", "9x9", "--dump", fmt) == 0
        assert calls == ["dump_fields", "write_report"]
        assert cli.main(["solve", "--potential", "(x^2+y^2)/2", "--grid", "16x16",
                         "--count", "3", "--combine", "1,2:1,i", "--dump", fmt,
                         "--out", str(tmp_path)]) == 2
        assert calls == ["dump_fields", "write_report"] * 2

    def test_dumpless_refusal_writes_the_report_only(self, calls, tmp_path, capsys):
        assert analyze(tmp_path, "--psi", "0", "--grid", "9x9") == 1
        assert calls == ["write_report"]
        assert "manifest" not in load_report(tmp_path)


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
        # the (2,1) mode changes sign across a nodal line: its 0/pi phase
        # does not wind, and I is set on both sides of the line
        assert code == 0
        rep = load_report(tmp_path)
        assert rep["vortices"]["count"] == 0 and rep["vortices"]["unwrapped"]
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
        err = capsys.readouterr().err
        assert err.startswith("error: eigenstate index ") and "out of range 0..2" in err

    def test_count_cutting_a_cluster_converges(self, tmp_path, capsys):
        # --count 2 cuts the quartic's E = 2.2365 pair; at seed 2 the cut
        # pair alone misses 1e-11 (1.45e-11), and the solver completes the
        # cluster
        code = cli.main([
            "solve", "--potential", QUARTIC, "--count", "2",
            "--domain", "-6,6,-6,6", "--grid", "129x129", "--solver-tol", "1e-11",
            "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        rep = load_report(tmp_path)
        assert len(rep["energies"]) == len(rep["solver_residuals"]) == 2
        assert max(rep["solver_residuals"]) <= 1e-11

    def test_bad_combine_spec(self, tmp_path, capsys, monkeypatch):
        # --combine is parsed before the solve, which takes ~1 s at 256x256
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before --combine was parsed")

        monkeypatch.setattr(spectral, "solve_lowest", no_solve)
        code = cli.main([
            "solve", "--potential", "0", "--grid", "16x16", "--domain", "0,1,0,1",
            "--count", "2", "--combine", "junk", "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: bad --combine 'junk': ")

    def test_combine_of_tiny_coefficients_is_not_zero(self, tmp_path, capsys):
        # the plain sum of squares underflows to 0; the state is that of 1,i,
        # whose vortex core hides in the node-masked centre cell
        reports = []
        for coeffs in ("1,i", "1e-200,1e-200*i"):
            out = tmp_path / coeffs
            code = cli.main([
                "solve", "--potential", "(x^2+y^2)/2", "--count", "3",
                "--combine", f"1,2:{coeffs}", "--domain", "-4,4,-4,4", "--grid", "33x33",
                "--out", str(out),
            ])
            assert code == 2
            reports.append(load_report(out))
        assert reports[0]["vortices"]["holes"] == [[16, 16, -1]]
        assert reports[0]["vortices"]["total_winding"] == -1
        for key in ("energies", "vortices"):
            assert reports[1][key] == reports[0][key]
        assert reports[1]["state"]["energy"] == reports[0]["state"]["energy"]

    # an infinite coefficient, and finite ones whose norm overflows
    @pytest.mark.parametrize("coeffs", ["1,1/0", "1e308,1e308"])
    def test_combine_without_finite_norm(self, tmp_path, capsys, coeffs):
        code = cli.main([
            "solve", "--potential", "(x^2+y^2)/2", "--count", "3",
            "--combine", f"1,2:{coeffs}", "--domain", "-4,4,-4,4", "--grid", "33x33",
            "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: combination has no finite norm; check the coefficients\n"
        assert_refused(tmp_path, "combination has no finite norm; check the coefficients")


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
