"""The benchmark's workloads: the `madelab` command line each one runs and
the checks its outputs must pass.

Each workload is a closed loop with one caller: `cli.main(argv)` runs
back to back in one process, with no concurrency. The checks read only
keys of the `madelab-report/1` schema, so blocks added to the report later
cannot break them. They run outside the timed region.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXIT_OK = 0
EXIT_VORTEX = 2
NORM_RTOL = 1e-6
ENERGY_ATOL = 1e-3
SOLVER_RESIDUAL_MAX = 1e-10


class CheckFailed(Exception):
    """An invocation returned a wrong exit code or a wrong output."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list[str]]
    exit_code: int
    # prepare() runs once per process, before timing; its result is passed
    # to check(out_dir, report, prepared) after every invocation.
    prepare: Callable[[], object]
    check: Callable[[Path, dict, object], None]


def _statuses(report: dict) -> dict:
    return {name: v["status"] for name, v in report["properties"].items()}


# --- analyze-smooth-513 --------------------------------------------------------

def _smooth_argv(seed: int) -> list[str]:
    return ["analyze", "--psi", "exp(x+i*y)*exp(-0.1*(x^2+y^2))",
            "--grid", "513x513", "--domain", "-4,4,-4,4", "--dump", "bin"]


def _smooth_prepare() -> dict:
    return json.loads((REFERENCE_DIR / "analyze-smooth-513.json").read_text())


def _close(got, want) -> bool:
    return abs(got - want) <= NORM_RTOL * abs(want)


def _smooth_check(out: Path, report: dict, reference: dict) -> None:
    v = report["vortices"]
    _require(v["count"] == 0, f"vortices.count {v['count']} != 0")
    _require(v["unwrapped"] is True, "phase not unwrapped")
    want = {p: "precondition-not-met" for p in ("P1", "P2", "P3", "P4", "P5")}
    want["P3"] = "holds"
    _require(_statuses(report) == want, f"statuses {_statuses(report)}")
    for name, ref in reference["norms"].items():
        got = report["norms"].get(name)
        if isinstance(ref, dict):
            _require(isinstance(got, dict) and _close(got["max"], ref["max"])
                     and _close(got["rms"], ref["rms"]),
                     f"norm {name}: {got} differs from reference {ref}")
        else:
            _require(got == ref, f"norm {name}: {got!r} != {ref!r}")


# --- analyze-vortex-csv-256 ----------------------------------------------------

def _csv_argv(seed: int) -> list[str]:
    return ["analyze", "--builtin", "ho_vortex", "--l", "1",
            "--grid", "256x256", "--domain", "-4,4,-4,4", "--dump", "csv"]


def _csv_check(out: Path, report: dict, prepared: None) -> None:
    from madelab import fieldio, spectral
    from madelab.currents import PhysicalParams
    from madelab.grid import GridSpec

    v = report["vortices"]
    _require(v["plaquettes"] == [[127, 127, 1]], f"plaquettes {v['plaquettes']}")
    _require(v["total_winding"] == 1, f"total_winding {v['total_winding']}")
    st = _statuses(report)
    _require(st["P1"] == "holds" and st["P3"] == "holds", f"statuses {st}")
    paths = sorted(out.glob("*.csv*"))
    _require(len(paths) == len(report["manifest"]), "dump files missing")
    fields = {p.name: fieldio.read_csv(p) for p in paths}
    # the dumped psi must round-trip the sampled state bit for bit
    g = report["grid"]
    spec = GridSpec(g["nx"], g["ny"], g["x0"], g["y0"], g["dx"], g["dy"])
    psi, _ = spectral.builtin_state("ho_vortex", {"l": 1}, spec, PhysicalParams())
    for part, want in (("re", psi.values.real), ("im", psi.values.imag)):
        got = fields[f"psi.csv.{part}"].values
        _require(got.shape == want.shape and np.array_equal(
            got.view(np.uint64), np.ascontiguousarray(want).view(np.uint64)),
            f"psi.csv.{part} is not bit-equal to the builtin state")


# --- solve-vortex-256 ----------------------------------------------------------

def _solve_argv(seed: int) -> list[str]:
    return ["solve", "--potential", "(x^2+y^2)/2", "--count", "3",
            "--combine", "1,2:1,i", "--domain", "-6,6,-6,6", "--grid", "256x256",
            "--solver-tol", "1e-10", "--seed", str(seed)]


def _solve_check(out: Path, report: dict, prepared: None) -> None:
    energies = report["energies"]
    _require(len(energies) == 3 and all(
        abs(e - w) <= ENERGY_ATOL for e, w in zip(energies, (1.0, 2.0, 2.0))),
        f"energies {energies}")
    res = report["solver_residuals"]
    _require(len(res) == 3 and max(res) <= SOLVER_RESIDUAL_MAX, f"residuals {res}")
    w = report["vortices"]["total_winding"]
    _require(abs(w) == 1, f"total_winding {w}")


def _nothing() -> None:
    return None


WORKLOADS = {w.name: w for w in (
    Workload(
        "analyze-smooth-513",
        "Vortex-free state: the pure-Python flood fill in madelung.unwrap_phase "
        "visits all 263k cells and dominates; also covers exprlang evaluation.",
        _smooth_argv, EXIT_OK, _smooth_prepare, _smooth_check),
    Workload(
        "analyze-vortex-csv-256",
        "Vortex core inside a plaquette, so unwrap_phase returns early; "
        "fieldio.write_csv of 19 fields does nearly all the work (exit 2).",
        _csv_argv, EXIT_VORTEX, _nothing, _csv_check),
    Workload(
        "solve-vortex-256",
        "The paper's headline flow: shift-invert Lanczos for the oscillator, "
        "then diagnose the combined vortex; splu and ARPACK dominate.",
        _solve_argv, EXIT_VORTEX, _nothing, _solve_check),
)}
