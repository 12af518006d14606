"""`check_report`: a report checked against itself and against the files
beside it in its output directory. A full report (exit 0 or 2) lists its
dumps, and its verdicts are judged again from its own norms; a partial one
(exit 1 or 3) stands alone."""

import hashlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
from scipy import ndimage

from madelab import analytic, fieldio


def read_dump(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """The (ny, nx) values of a scalar dump in any of the three formats."""
    if path.suffix == ".mfld":
        return fieldio.read_binary(path).values
    if path.suffix == ".csv":
        return fieldio.read_csv(path).values
    return np.loadtxt(path, usecols=2).reshape(shape)  # gnuplot: x y value, row by row


PARTIAL_KEYS = {
    1: ["config", "error", "generated_at", "schema"],
    3: ["config", "energies", "error", "generated_at", "schema", "solver_residuals"],
}


def check_report(report: dict, out_dir: Path, code: int) -> None:
    if code in PARTIAL_KEYS:
        assert sorted(report) == PARTIAL_KEYS[code]
        if code == 3:
            assert len(report["energies"]) == len(report["solver_residuals"])
        assert [p.name for p in out_dir.iterdir()] == ["report.json"]
        return
    manifest = {e["path"]: e["sha256"] for e in report["manifest"]}
    assert len(manifest) == len(report["manifest"])
    assert sorted(p.name for p in out_dir.iterdir()) == sorted([*manifest, "report.json"])
    for name, digest in manifest.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name

    v = report["vortices"]
    assert len(v["plaquettes"]) == min(v["count"], 50)
    if v["count"] <= 50 and len(v["holes"]) < 50:
        assert v["total_winding"] == sum(w for *_, w in v["plaquettes"] + v["holes"])
    shape = report["grid"]["ny"], report["grid"]["nx"]
    s_dump, = (name for name in manifest if name.rsplit(".", 1)[0] == "S")
    valid = np.isfinite(read_dump(out_dir / s_dump, shape))
    for j, i, _ in v["plaquettes"]:
        assert valid[j:j + 2, i:i + 2].all(), (j, i)
    label, _ = ndimage.label(~valid, np.ones((3, 3)))  # holes are 8-connected
    edge = np.concatenate([label[0], label[-1], label[:, 0], label[:, -1]])
    for j, i, q in v["holes"]:
        # a charged hole lies off the grid edge, and (j, i) is its row-major
        # first cell: invalid, with its 8-neighbours before it valid
        assert q != 0 and 1 <= j <= shape[0] - 2 and 1 <= i <= shape[1] - 2, (j, i, q)
        assert not valid[j, i] and valid[j, i - 1] and valid[j - 1, i - 1:i + 2].all(), (j, i)
        assert label[j, i] not in edge, (j, i)
    i_dumps = [name for name in manifest if name.rsplit(".", 1)[0] == "I"]
    assert v["unwrapped"] == bool(i_dumps) == (code != 2)
    if i_dumps:
        assert np.array_equal(np.isfinite(read_dump(out_dir / i_dumps[0], shape)), valid)

    if "energies" in report:
        energies, residuals = report["energies"], report["solver_residuals"]
        assert energies == sorted(energies) and len(residuals) == len(energies)
        assert all(r <= report["config"]["solver_tol"] for r in residuals)
    # the verdicts again, from the report's own norms and tolerance
    judged = analytic.verdicts(report["norms"], report["tolerance"])
    assert report["properties"] == {
        name: {k: v for k, v in asdict(verdict).items() if k != "note" or v}
        for name, verdict in judged.items()}
