"""`import madelab` and the analyze/convergence paths never load scipy; the
solver is reached only through `madelab.spectral`, which loads
`scipy.linalg`. `scipy.sparse` loads only for shift-invert. The text
formatter's tables are built on the first text dump, not on import, and
`concurrent.futures` loads only for a binary dump. Each check runs in a
fresh interpreter, since this test process has long imported everything."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NO_SCIPY = ("assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], "
            "sorted(m for m in sys.modules if m.startswith('scipy'))")
NO_SPARSE = ("assert not [m for m in sys.modules if m.startswith('scipy.sparse')], "
             "sorted(m for m in sys.modules if m.startswith('scipy.sparse'))")
SOLVE = ["solve", "--grid", "24x24", "--domain", "-5,5,-5,5", "--count", "3", "--out", "out"]


def run_fresh(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("module", ["madelab", "madelab.cli"])
def test_import_leaves_scipy_unloaded(module, tmp_path):
    run_fresh(f"import {module}\n{NO_SCIPY}", tmp_path)


def test_binary_dumps_alone_load_the_executor(tmp_path):
    # `dumps.Writer` imports `concurrent.futures`, which loads `logging`,
    # when a binary run builds it
    run_fresh("""
from madelab import cli
argv = ["analyze", "--psi", "exp(x+i*y)", "--grid", "9x9", "--dump"]
assert "concurrent.futures" not in sys.modules
assert cli.main(argv + ["csv", "--out", "csv"]) == 0
assert "concurrent.futures" not in sys.modules
assert cli.main(argv + ["bin", "--out", "bin"]) == 0
assert "concurrent.futures" in sys.modules
""", tmp_path)


def test_import_builds_no_formatter_table(tmp_path):
    # every cached table of `fieldio`, `_tables` and any added beside it,
    # stays empty until a text dump needs it
    run_fresh("""
import madelab.cli
from madelab import fieldio
tables = {name: fn for name, fn in vars(fieldio).items() if hasattr(fn, "cache_info")}
assert "_tables" in tables
assert not {name: fn.cache_info().currsize for name, fn in tables.items() if fn.cache_info().currsize}
fieldio._csv_lines(fieldio.np.ones((1, 1)))
assert fieldio._tables.cache_info().currsize == 1
""", tmp_path)


def test_analyze_and_convergence_leave_scipy_unloaded(tmp_path):
    run_fresh(f"""
from madelab import cli
assert cli.main(["analyze", "--builtin", "ho_vortex", "--grid", "32x32",
                 "--domain", "-4,4,-4,4", "--out", "out"]) == 2
assert cli.main(["convergence", "--builtin", "ho_ground", "--grid", "8x8",
                 "--levels", "2"]) == 0
{NO_SCIPY}
""", tmp_path)


def test_solver_names_load_spectral_on_first_use(tmp_path):
    # the solver's names exist only in `madelab.spectral`; importing it loads
    # scipy.linalg, not scipy.sparse
    run_fresh(f"""
import madelab
{NO_SCIPY}
assert "builtin_state" in dir(madelab)
names = ("EigenSolution", "Hamiltonian", "assemble", "combine", "solve_lowest")
assert not [name for name in names if hasattr(madelab, name)]
{NO_SCIPY}
import madelab.catalog
import madelab.spectral
assert madelab.spectral.builtin_state is madelab.catalog.builtin_state
assert madelab.builtin_state is madelab.catalog.builtin_state
assert madelab.spectral.BUILTIN_NAMES is madelab.catalog.BUILTIN_NAMES
assert "scipy.linalg" in sys.modules
{NO_SPARSE}
""", tmp_path)


def test_separable_solve_leaves_sparse_unloaded(tmp_path):
    run_fresh(f"""
from madelab import cli
assert cli.main({[*SOLVE, "--potential", "(x^2+y^2)/2"]!r}) == 0
assert "scipy.linalg" in sys.modules
{NO_SPARSE}
""", tmp_path)


def test_shift_invert_solve_loads_sparse(tmp_path):
    run_fresh(f"""
from madelab import cli
assert cli.main({[*SOLVE, "--potential", "(x^2+y^2)/2+0.05*(x^2+y^2)^2"]!r}) == 0
assert "scipy.sparse.linalg" in sys.modules
""", tmp_path)


def test_sparse_names_resolve_without_binding(tmp_path):
    # the benchmark's tracer patches `spectral.spla.eigsh` and compares the
    # module's namespace before and after
    run_fresh(f"""
import madelab.spectral
{NO_SPARSE}
import scipy.sparse
import scipy.sparse.linalg
assert madelab.spectral.spla is scipy.sparse.linalg
assert madelab.spectral.sp is scipy.sparse
assert "spla" not in vars(madelab.spectral) and "sp" not in vars(madelab.spectral)
try:
    madelab.spectral.nonexistent
except AttributeError as err:
    assert "nonexistent" in str(err)
else:
    raise AssertionError("madelab.spectral.nonexistent resolved")
""", tmp_path)


def test_unknown_name_raises_attribute_error(tmp_path):
    run_fresh("""
import madelab
try:
    madelab.nonexistent
except AttributeError as err:
    assert "nonexistent" in str(err)
else:
    raise AssertionError("madelab.nonexistent resolved")
assert not hasattr(madelab, "spectral")
""", tmp_path)
