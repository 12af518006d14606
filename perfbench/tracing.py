"""Spans and counts around the calls into each `madelab` module.

Nothing in `madelab` changes: `install` replaces, for the length of one
traced invocation, each public function at the name its caller actually
looks up. Some callers bind functions at import time, so the wrapper sits
on that binding, not on the defining module:

- `cli._DUMP` holds the `fieldio` writers, and `write_complex` binds its
  `writer=` default;
- `madelung` and `currents` use `from .grid import ...`;
- ARPACK's shift-invert path calls the `splu` it imported into
  `scipy.sparse.linalg._eigen.arpack.arpack`; the factor it returns is
  proxied so that each operator application (`solve`) is counted.

Spans (name, start, end, parent, invocation) stay in memory; the caller
writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# metric -> (span names summed, inclusive). Times are self times (duration
# minus the part child spans cover) unless marked inclusive.
SPAN_METRICS = {
    "cli.main.s": (("cli.main",), True),
    "cli.self.s": (("cli.main",), False),
    "cli.dump_fields.s": (("cli.dump_fields",), True),
    "cli.write_report.s": (("cli.write_report",), False),
    "exprlang.parse.s": (("exprlang.parse",), False),
    "exprlang.eval_field.s": (("exprlang.eval_field",), False),
    "madelung.decompose.s": (("madelung.decompose",), False),
    "madelung.residues.s": (("madelung.residues",), False),
    "madelung.unwrap_phase.s": (("madelung.unwrap_phase",), False),
    "grid.raw_gradient.s": (("grid.raw_gradient",), False),
    "grid.raw_laplacian.s": (("grid.raw_laplacian",), False),
    "grid.stencil.s": (("grid.stencil",), False),
    "currents.compute_currents.s": (("currents.compute_currents",), False),
    "analytic.analyze.s": (("analytic.analyze",), False),
    "analytic.default_tolerance.s": (("analytic.default_tolerance",), False),
    "analytic.check_properties.s": (("analytic.check_properties",), False),
    "spectral.builtin_state.s": (("spectral.builtin_state",), False),
    "spectral.combine.s": (("spectral.combine",), False),
    # Hamiltonian.matrix is a cached property built lazily inside
    # solve_lowest; it is part of assembly.
    "spectral.assemble.s": (("spectral.assemble", "spectral.matrix"), False),
    "spectral.solve_lowest.s": (("spectral.solve_lowest",), False),
    "spectral.eigsh.s": (("spectral.eigsh",), False),
    "spectral.factor.s": (("spectral.factor",), False),
    "spectral.opinv.s": (("spectral.opinv",), False),
    "fieldio.write.s": (("fieldio.write",), False),
}

# counts that must repeat exactly for a fixed workload and seed
COUNT_METRICS = (
    "exprlang.eval_field.cells",
    "madelung.residues.calls",
    "madelung.unwrap.cells",
    "spectral.factor.nnz",
    "spectral.opinv.calls",
    "fieldio.write.bytes",
    "fieldio.write.files",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, invocation]
        self.counts: list[dict] = []       # one dict of counts per invocation
        self._stack: list[int] = []
        self._undo: list = []

    # --- recording -------------------------------------------------------------

    def begin_invocation(self) -> None:
        self.counts.append(defaultdict(int))

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, len(self.counts) - 1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[-1][name] += n

    def timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    # --- installing the wrappers --------------------------------------------

    def _patch(self, obj, attr: str, make) -> None:
        if not hasattr(obj, attr):
            return
        old = getattr(obj, attr)
        setattr(obj, attr, make(old))
        self._undo.append(lambda: setattr(obj, attr, old))

    def install(self) -> None:
        """Wrap every traced call site; `uninstall` restores them."""
        mod = importlib.import_module
        cli, fieldio = mod("madelab.cli"), mod("madelab.fieldio")
        madelung, currents = mod("madelab.madelung"), mod("madelab.currents")
        analytic, exprlang = mod("madelab.analytic"), mod("madelab.exprlang")
        spectral = mod("madelab.spectral")
        arpack = mod("scipy.sparse.linalg._eigen.arpack.arpack")

        def timed(name, after=None):
            return lambda fn: self.timed(name, fn, after)

        def count_write(args, result):
            self.count("fieldio.write.files")
            self.count("fieldio.write.bytes", os.path.getsize(args[1]))

        write = timed("fieldio.write", count_write)
        wrapped_writers = {}
        for fmt, (ext, writer) in list(cli._DUMP.items()):
            wrapped_writers[writer] = write(writer)
            cli._DUMP[fmt] = (ext, wrapped_writers[writer])
            self._undo.append(lambda fmt=fmt, entry=(ext, writer):
                              cli._DUMP.__setitem__(fmt, entry))
        self._patch(fieldio, "write_binary", lambda fn: wrapped_writers.get(fn) or write(fn))
        wc = fieldio.write_complex
        old_defaults = wc.__defaults__
        wc.__defaults__ = tuple(wrapped_writers.get(d, d) for d in old_defaults or ())
        self._undo.append(lambda: setattr(wc, "__defaults__", old_defaults))

        self._patch(cli, "dump_fields", timed("cli.dump_fields"))
        self._patch(cli, "write_report", timed("cli.write_report"))

        self._patch(exprlang, "parse", timed("exprlang.parse"))
        self._patch(exprlang, "eval_field", timed(
            "exprlang.eval_field",
            lambda args, result: self.count("exprlang.eval_field.cells", result.values.size)))

        self._patch(madelung, "decompose", timed("madelung.decompose"))
        self._patch(madelung, "residues", timed(
            "madelung.residues", lambda args, result: self.count("madelung.residues.calls")))
        self._patch(madelung, "unwrap_phase", self._unwrap)
        self._patch(madelung, "raw_gradient", timed("grid.raw_gradient"))
        self._patch(madelung, "raw_laplacian", timed("grid.raw_laplacian"))
        for name in ("gradient", "laplacian", "divergence"):
            self._patch(currents, name, timed("grid.stencil"))
        self._patch(currents, "compute_currents", timed("currents.compute_currents"))

        for name in ("analyze", "default_tolerance", "check_properties"):
            self._patch(analytic, name, timed(f"analytic.{name}"))

        for name in ("builtin_state", "combine", "assemble", "solve_lowest"):
            self._patch(spectral, name, timed(f"spectral.{name}"))
        self._patch(spectral.spla, "eigsh", timed("spectral.eigsh"))
        self._patch(arpack, "splu", self._splu)
        self._patch_cached_property(spectral.Hamiltonian, "matrix", "spectral.matrix")

    def _patch_cached_property(self, cls, attr: str, span: str) -> None:
        old = cls.__dict__.get(attr)
        if not isinstance(old, functools.cached_property):
            return
        new = functools.cached_property(self.timed(span, old.func))
        new.__set_name__(cls, attr)
        setattr(cls, attr, new)
        self._undo.append(lambda: setattr(cls, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _unwrap(self, fn):
        @functools.wraps(fn)
        def traced(psi, *args, **kwargs):
            self.count("madelung.unwrap.valid", int(psi.mask.sum()))
            with self.span("madelung.unwrap_phase"):
                result = fn(psi, *args, **kwargs)
            self.count("madelung.unwrap.cells", int(result.mask.sum()))
            return result
        return traced

    def _splu(self, fn):
        tracer = self

        class CountingFactor:
            """Forwards to the real factor; counts and times each solve."""

            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                tracer.count("spectral.opinv.calls")
                with tracer.span("spectral.opinv"):
                    return self._lu.solve(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self._lu, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span("spectral.factor"):
                lu = fn(*args, **kwargs)
            # SuperLU's own count of stored nonzeros in L and U; building
            # lu.L and lu.U to count them would cost more than a solve
            self.count("spectral.factor.nnz", int(lu.nnz))
            return CountingFactor(lu)
        return traced

    # --- summarising ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for index, (_, start, end, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children[index]):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((end - start) - covered)
        return out

    def layer_metrics(self, untraced_run_s: float) -> dict[str, float]:
        """Per-layer metrics: medians over the traced invocations."""
        n = len(self.counts)
        per_inv = [defaultdict(float) for _ in range(n)]
        selfs = self.self_times()
        for (name, start, end, _, inv), own in zip(self.spans, selfs):
            per_inv[inv][(name, True)] += end - start
            per_inv[inv][(name, False)] += own
        rows = []
        for inv in range(n):
            counts = self.counts[inv]
            row = {metric: sum(per_inv[inv][(s, inclusive)] for s in spans)
                   for metric, (spans, inclusive) in SPAN_METRICS.items()}
            row.update({name: counts.get(name, 0) for name in COUNT_METRICS})
            valid = counts.get("madelung.unwrap.valid", 0)
            row["madelung.unwrap.coverage"] = (
                counts.get("madelung.unwrap.cells", 0) / valid if valid else 0.0)
            write_s = row["fieldio.write.s"]
            row["fieldio.write.MBps"] = (
                row["fieldio.write.bytes"] / 1e6 / write_s if write_s > 0 else 0.0)
            rows.append(row)
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.overhead_frac"] = metrics["cli.main.s"] / untraced_run_s - 1.0
        return metrics
