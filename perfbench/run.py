"""madelab benchmark: time `madelab.cli.main` end to end, or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run starts a fresh child process
(`child.py`) that calls `cli.main(argv)` back to back for S seconds and
checks every invocation's outputs. With `--trace 0` the run also starts
fresh interpreters that only import `madelab.cli`, and reports the
end-to-end metrics; with `--trace 1` it reports the per-layer metrics of
`tracing.py`. `run_s` and `setup_s` are medians in reference-speed
seconds (see `speed.py`); `peak_rss_mb` is as measured.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The lines before it give the
machine, the versions, the wall-clock samples and their counts.

`--seed` reaches the program only as `solve --seed` (ARPACK's start
vector); the two `analyze` workloads are closed-form and ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"

sys.path.insert(0, str(HERE))
from speed import probe, to_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
# the child stops starting invocations after --seconds; this covers the
# last invocation and the checks
CHILD_GRACE_S = 90
# one BLAS thread: the single-threaded baseline, within the 2-core budget
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBE = "import time, madelab.cli; print(repr(time.monotonic()))"


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to `import madelab.cli` done,
    as (reference-speed, wall) lists.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading
    can be compared with the parent's.
    """
    reference, wall = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=True)
        wall.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        after = probe()
        reference.append(to_reference(wall[-1], before, after))
        before = after
    return reference, wall


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def _machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("model name", "cache size"):
                info.setdefault(key.strip().replace(" ", "_"), value.strip())
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    return info


def _summary(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values),
            "q1": quartiles[0], "q3": quartiles[2]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "madelab" / "cli.py").is_file():
        print(f"error: no madelab source under {SRC}", file=sys.stderr)
        return 2

    env = _child_env()
    setup, setup_wall = ([], []) if args.trace else measure_setup(env)

    out_dir = RUN_DIR / f"out-{args.workload}-{os.getpid()}"
    spans = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir), "--spans", str(spans)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_GRACE_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    run_s = child["run_reference_s"]
    if not run_s or (args.trace and "layers" not in child):
        print("error: no invocation completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": v, "unit": _unit(name)}
                   for name, v in child["layers"].items()}
    else:
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }

    print(json.dumps({"provenance": {
        "workload": args.workload, "why": WORKLOADS[args.workload].why,
        "seed": args.seed, "commit": _git_commit(), "machine": _machine(),
        "versions": child["versions"], "out_dir": str(out_dir.relative_to(ROOT)),
        "blas_threads": 1}}))
    print(json.dumps({"samples": {
        "run_s": _summary(run_s), "run_wall_s": _summary(child["run_s"]),
        "probe_s": _summary(child["probe_s"]),
        "setup_s": _summary(setup) if setup else None,
        "setup_wall_s": _summary(setup_wall) if setup else None,
        "errors": child["errors"]}}))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith(".MBps"):
        return "MB/s"
    if metric.endswith("_frac") or metric.endswith(".coverage"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
