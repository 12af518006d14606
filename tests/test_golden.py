"""Golden outputs: each case reruns the command line and must reproduce the
stored text byte for byte.

Reports are compared as `json.dumps(sort_keys=True, indent=2)` text with
`generated_at` and `config.out` removed; the manifest's sha256 entries pin
every dumped field as well. The `convergence` case compares its stdout.

After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from madelab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code); grids stay at the 65x65 default or smaller
REPORT_CASES = {
    "analyze_smooth": (["analyze", "--psi", "exp(x+i*y)*exp(-0.1*(x^2+y^2))"], 0),
    "analyze_vortex_csv": (["analyze", "--builtin", "ho_vortex", "--dump", "csv"], 2),
    "solve_combine": (["solve", "--potential", "(x^2+y^2)/2", "--count", "3",
                       "--combine", "1,2:1,i", "--seed", "7"], 2),
    # the (1,2)/(2,1) box mode has a nodal line, so its phase cannot unwrap
    "solve_nodal": (["solve", "--potential", "0", "--domain", "0,1,0,1",
                     "--count", "2", "--state-index", "1"], 2),
}
CONVERGENCE_ARGV = ["convergence", "--psi", "exp(x+i*y)", "--grid", "16x16",
                    "--domain", "-1,1,-1,1", "--levels", "3"]


def report_text(argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", tmp])
        report = json.loads((Path(tmp) / "report.json").read_text())
    report.pop("generated_at")
    report["config"].pop("out")
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def convergence_text() -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(CONVERGENCE_ARGV)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_report_matches_golden(name):
    argv, want_code = REPORT_CASES[name]
    code, text = report_text(argv)
    assert code == want_code
    assert text == (GOLDEN / f"{name}.json").read_text()


def test_convergence_matches_golden():
    code, text = convergence_text()
    assert code == 0
    assert text == (GOLDEN / "convergence.csv").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in REPORT_CASES.items():
        (GOLDEN / f"{name}.json").write_text(report_text(argv)[1])
    (GOLDEN / "convergence.csv").write_text(convergence_text()[1])
    sys.exit(0)
