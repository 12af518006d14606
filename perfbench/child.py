"""One workload run in a fresh process: call `madelab.cli.main(argv)` back to
back for a fixed time, check every invocation's outputs, and print one JSON
object with the samples.

Started by `run.py`; not meant to be run by hand. With `--trace 1`, untraced
and traced invocations alternate, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from speed import probe, to_reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

import madelab.cli as cli  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

MAX_ERRORS_KEPT = 5


def _invoke(argv: list[str], out: Path, tracer: Tracer | None,
            probes: list[float]) -> tuple[int, float]:
    """One timed `cli.main` call; everything else happens outside the timer.

    Appends the speed probe taken right before the call to `probes`.
    """
    shutil.rmtree(out, ignore_errors=True)
    if tracer is not None:
        tracer.begin_invocation()
        tracer.install()
    gc.collect()
    probes.append(probe())
    span = tracer.span("cli.main") if tracer is not None else contextlib.nullcontext()
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rc, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where a traced run writes its spans")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    argv = wl.argv(args.seed) + ["--out", str(args.out)]
    prepared = wl.prepare()
    tracer = Tracer() if args.trace else None

    samples = {False: [], True: []}    # seconds per invocation, by traced
    probes, timed = [], []             # probe k precedes invocation k
    attempts = {False: 0, True: 0}
    failed, errors = 0, []
    start = time.perf_counter()
    # a traced run alternates untraced and traced invocations and needs
    # at least one of each
    while (time.perf_counter() - start < args.seconds
           or not attempts[False] or (tracer is not None and not attempts[True])):
        use_trace = tracer is not None and attempts[True] < attempts[False]
        attempts[use_trace] += 1
        try:
            rc, elapsed = _invoke(argv, args.out, tracer if use_trace else None, probes)
            samples[use_trace].append(elapsed)
            if not use_trace:
                timed.append((len(probes) - 1, elapsed))
            if rc != wl.exit_code:
                raise CheckFailed(f"exit code {rc}, expected {wl.exit_code}")
            report = json.loads((args.out / "report.json").read_text())
            wl.check(args.out, report, prepared)
        except Exception as err:  # any failure counts against this invocation
            failed += 1
            if len(errors) < MAX_ERRORS_KEPT:
                errors.append("".join(traceback.format_exception_only(err)).strip())
                if not isinstance(err, CheckFailed):
                    traceback.print_exc()
    shutil.rmtree(args.out, ignore_errors=True)
    probes.append(probe())
    reference_s = [to_reference(t, probes[k], probes[k + 1]) for k, t in timed]

    result = {
        "attempted": attempts[False] + attempts[True],
        "failed": failed,
        "errors": errors,
        "run_s": samples[False],
        "run_reference_s": reference_s,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None and samples[False] and samples[True]:
        result["layers"] = tracer.layer_metrics(statistics.median(samples[False]))
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(
                {"workload": wl.name, "seed": args.seed, "counts": tracer.counts,
                 "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
