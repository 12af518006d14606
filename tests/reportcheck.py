"""`check_report`: a full report (exit 0 or 2) checked against itself and
against the files beside it in its output directory."""

import hashlib
from pathlib import Path

import numpy as np

from madelab import fieldio


def read_dump(path: Path) -> np.ndarray:
    """The values of a scalar dump in any of the three formats."""
    if path.suffix == ".mfld":
        return fieldio.read_binary(path).values
    if path.suffix == ".csv":
        return fieldio.read_csv(path).values
    return np.loadtxt(path, usecols=2)  # gnuplot: x y value, row by row


def check_report(report: dict, out_dir: Path, code: int) -> None:
    manifest = {e["path"]: e["sha256"] for e in report["manifest"]}
    assert len(manifest) == len(report["manifest"])
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*manifest, "report.json"])
    for name, digest in manifest.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name

    v = report["vortices"]
    assert len(v["plaquettes"]) == min(v["count"], 50)
    if v["count"] <= 50 and len(v["holes"]) < 50:
        assert v["total_winding"] == sum(w for *_, w in v["plaquettes"] + v["holes"])
    i_dumps = [name for name in manifest if name.rsplit(".", 1)[0] == "I"]
    assert v["unwrapped"] == bool(i_dumps) == (code != 2)
    if i_dumps:
        I = read_dump(out_dir / i_dumps[0])
        S = read_dump(out_dir / i_dumps[0].replace("I", "S", 1))
        assert np.array_equal(np.isfinite(I), np.isfinite(S))

    if "energies" in report:
        energies, residuals = report["energies"], report["solver_residuals"]
        assert energies == sorted(energies) and len(residuals) == len(energies)
        assert all(r <= report["config"]["solver_tol"] for r in residuals)
    assert all(p["tol"] == report["tolerance"] for p in report["properties"].values())
