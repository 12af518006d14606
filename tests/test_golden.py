"""Golden outputs: each case reruns the command line and must reproduce the
stored text byte for byte.

Reports are compared as `json.dumps(sort_keys=True, indent=2)` text with
`generated_at` and `config.out` removed; the manifest's sha256 entries pin
every dumped field as well. Each report must also pass `check_report`
against its own output directory. The `convergence` case compares its
stdout.

After an intended output change, regenerate with

    PYTHONPATH=src python tests/test_golden.py

which prints, per golden, each JSON path (each line, for the CSV) that the
new output adds (+), removes (-) or changes (~ old -> new) before it
overwrites the file.
"""

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from madelab import cli
from reportcheck import check_report

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (argv, exit code); grids stay at the 65x65 default or smaller
REPORT_CASES = {
    "analyze_smooth": (["analyze", "--psi", "exp(x+i*y)*exp(-0.1*(x^2+y^2))"], 0),
    "analyze_vortex_csv": (["analyze", "--builtin", "ho_vortex", "--dump", "csv"], 2),
    # a vortex pair whose cores hide in masked holes: no plaquette winds,
    # and the holes carry charges +1 and -1
    "analyze_hidden_pair": (["analyze", "--psi", "(x+i*y)*(x-1-i*y)*exp(-(x^2+y^2))",
                             "--node-threshold", "0.05"], 2),
    "solve_combine": (["solve", "--potential", "(x^2+y^2)/2", "--count", "3",
                       "--combine", "1,2:1,i", "--seed", "7"], 2),
    # the (1,2)/(2,1) box mode is real with a nodal line: no plaquette
    # winds, and its 0/pi phase unwraps
    "solve_nodal": (["solve", "--potential", "0", "--domain", "0,1,0,1",
                     "--count", "2", "--state-index", "1"], 0),
    # no pair reaches 1e-16: the partial report of exit 3, with no dump
    "solve_unconverged": (["solve", "--potential", "(x^2+y^2)/2", "--grid", "32x32",
                           "--domain", "-5,5,-5,5", "--count", "4", "--solver-tol", "1e-16"], 3),
    # a complex potential is refused: the report of exit 1, error only
    "solve_refused": (["solve", "--potential", "(x^2+y^2)/2 + i*x", "--grid", "17x17"], 1),
}
CONVERGENCE_ARGV = ["convergence", "--psi", "exp(x+i*y)", "--grid", "16x16",
                    "--domain", "-1,1,-1,1", "--levels", "3"]


def reject_constant(name: str):
    raise ValueError(f"report.json is not strict JSON: {name}")


def report_text(argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv + ["--out", tmp])
        report = json.loads((Path(tmp) / "report.json").read_text(),
                            parse_constant=reject_constant)
        check_report(report, Path(tmp), code)
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


_ABSENT = object()


def json_diff(old, new, path: str = "") -> list[str]:
    """One line per path, in document order, that `new` adds (+), removes
    (-) or changes (~ old -> new) against `old`. Objects and arrays are
    compared member by member; a value that changes type counts as changed."""
    if old is _ABSENT:
        return [f"+ {path} = {json.dumps(new)}"]
    if new is _ABSENT:
        return [f"- {path} = {json.dumps(old)}"]
    if isinstance(old, dict) and isinstance(new, dict):
        pairs = {f"{path}.{k}" if path else k: (old.get(k, _ABSENT), new.get(k, _ABSENT))
                 for k in {**old, **new}}
    elif isinstance(old, list) and isinstance(new, list):
        pairs = {f"{path}[{i}]": pair
                 for i, pair in enumerate(itertools.zip_longest(old, new, fillvalue=_ABSENT))}
    else:
        same = type(old) is type(new) and old == new
        return [] if same else [f"~ {path}: {json.dumps(old)} -> {json.dumps(new)}"]
    return [line for p, (a, b) in pairs.items() for line in json_diff(a, b, p)]


def test_json_diff_names_every_moved_path():
    old = {"a": 1, "b": {"c": [1, 2, 3], "d": "x"}, "e": True, "f": {"g": 1}}
    new = {"a": 1.0, "b": {"c": [1, 5], "d": "x"}, "e": True, "f": [1], "h": None}
    assert json_diff(old, new) == [
        "~ a: 1 -> 1.0",
        "~ b.c[1]: 2 -> 5",
        "- b.c[2] = 3",
        '~ f: {"g": 1} -> [1]',
        "+ h = null",
    ]
    assert json_diff(old, old) == [] and json_diff([], ["x"]) == ['+ [0] = "x"']


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    texts = {f"{name}.json": report_text(argv)[1] for name, (argv, _) in REPORT_CASES.items()}
    texts["convergence.csv"] = convergence_text()[1]
    for name, text in texts.items():
        path = GOLDEN / name
        parse = json.loads if name.endswith(".json") else str.splitlines
        if not path.exists():
            print(f"{name}: new")
        else:
            moved = json_diff(parse(path.read_text()), parse(text))
            print(f"{name}: {len(moved)} moved" if moved else f"{name}: unchanged")
            for line in moved:
                print(f"  {line}")
        path.write_text(text)
    sys.exit(0)
