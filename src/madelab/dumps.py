"""The two dumpers of a run's field files. Each takes jobs, `(writer,
field, path)` tuples whose writer returns the SHA-256 of what it wrote:
`put` them as their fields become final, `wait` for every digest by path,
`stop` on failure. `Writer` is one thread (binary dumps); `Split` shares
the jobs out over forked children once waited on (text dumps)."""

from __future__ import annotations

import os
from pathlib import Path


class Writer:
    """The dumper of binary runs: a `ThreadPoolExecutor` whose one thread,
    started by the first job, writes and hashes the jobs handed to `put`, in
    order, while the caller goes on. `wait` raises the first failed job's
    exception in the caller's thread; the jobs queued behind it are still
    written, and the caller deletes them with the rest of the run. Threads,
    not processes: `hashlib`, file writes and row-block copies release the GIL."""

    def __init__(self):
        # imported here: it loads `logging`, which `import madelab.cli` and text runs skip
        from concurrent.futures import ThreadPoolExecutor
        self._pool = ThreadPoolExecutor(1, "madelab-dump")
        self._futures = {}

    def put(self, jobs: list[tuple]) -> None:
        for writer, field, path in jobs:
            self._futures[path] = self._pool.submit(writer, field, path)

    def wait(self) -> dict[Path, str]:
        """Every job's digest by path, once all are written and the thread
        has ended; the first failed job's exception is raised here."""
        self._pool.shutdown()
        return {path: future.result() for path, future in self._futures.items()}

    def stop(self) -> None:
        """End the thread once the job under way is written; drop the rest."""
        self._pool.shutdown(cancel_futures=True)


class Split:
    """The dumper of text runs: it holds the jobs handed to `put` until
    `wait` writes them all with `_run_split`, in the order they came."""

    def __init__(self):
        self._jobs: list[tuple] = []

    def put(self, jobs: list[tuple]) -> None:
        self._jobs += jobs

    def wait(self) -> dict[Path, str]:
        """Every job's digest by path; a failed job raises here."""
        return _run_split(self._jobs, worker_count(len(self._jobs)))

    def stop(self) -> None:
        """Drop the jobs unwritten; no child was started."""
        self._jobs = []


def worker_count(n_jobs: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs)


def _run_split(jobs: list, workers: int) -> dict[Path, str]:
    """Run `jobs[k::workers]` in forked child k (1 <= k < workers) and
    `jobs[0::workers]` here; return every job's digest by path.

    Each child sends its digests, or `"<ExcType>: <message>"` on failure,
    back through a pipe. Every child is reaped before this returns or
    raises; a child's failure is raised here as `OSError`. Processes, not
    threads: threads share one GIL, which the text formatter's short numpy
    calls pass back and forth."""
    children = []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                _dump_worker(jobs[k::workers], w)
            os.close(w)
            children.append((pid, r))
        digests = [""] * len(jobs)
        digests[0::workers] = [writer(field, path) for writer, field, path in jobs[0::workers]]
    finally:
        replies = []
        for pid, r in children:
            with open(r) as fh:  # to the end first: a child may wait on a full pipe
                text = fh.read()
            replies.append((os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text))
    failures = [text or f"dump worker ended with code {code}" for code, text in replies if code]
    if failures:
        raise OSError("; ".join(failures))
    for k, (_, text) in enumerate(replies, 1):
        digests[k::workers] = text.split()
    return {path: digest for (*_, path), digest in zip(jobs, digests)}


def _dump_worker(jobs: list, fd: int):
    """The body of a forked child: never returns into the caller. It leaves
    through `os._exit`, so no atexit handler runs and no stdio buffer
    copied from the parent is flushed a second time."""
    status = 1
    try:
        try:
            text, code = "\n".join(writer(field, path) for writer, field, path in jobs), 0
        except BaseException as err:
            text, code = f"{type(err).__name__}: {err}", 1
        with open(fd, "w") as fh:
            fh.write(text)
        status = code
    finally:
        os._exit(status)
