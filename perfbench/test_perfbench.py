"""Checks of the benchmark itself, outside the repository's tier-1 suite:

    python3 -m pytest -q perfbench

- the deterministic counts repeat exactly across runs of one workload;
- self time subtracts the union of the child spans;
- `uninstall` restores every call site `install` replaced;
- without the program's source the benchmark fails without a result.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tracing import COUNT_METRICS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = _bench(workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: result["metrics"][k]["value"] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["madelung.residues.calls"] > 0


def test_self_time_subtracts_union_of_children():
    t = Tracer()
    t.spans = [
        ["parent", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 5.0, 0, 0],     # overlaps a: covered 1..5
        ["c", 7.0, 8.0, 0, 0],
        ["grandchild", 7.2, 7.5, 3, 0],
    ]
    assert t.self_times() == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_uninstall_restores_every_call_site():
    cli = importlib.import_module("madelab.cli")
    fieldio = importlib.import_module("madelab.fieldio")
    spectral = importlib.import_module("madelab.spectral")
    arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")
    modules = [importlib.import_module(f"madelab.{m}") for m in
               ("cli", "fieldio", "madelung", "currents", "analytic", "exprlang", "spectral")]

    def snapshot():
        return ([dict(vars(m)) for m in modules], dict(cli._DUMP),
                fieldio.write_complex.__defaults__, spectral.spla.eigsh, arpack.splu,
                spectral.Hamiltonian.__dict__["matrix"])

    before = snapshot()
    t = Tracer()
    t.begin_invocation()
    t.install()
    assert cli._DUMP["csv"][1] is not before[1]["csv"][1]
    t.uninstall()
    assert snapshot() == before


def test_fails_without_program_source():
    (HERE / "_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_run") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_run", "__pycache__"))
        proc = _bench("analyze-smooth-513", seed=1, trace=0, cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
