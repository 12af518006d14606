"""Command-line entry point: analyze a state, solve for eigenstates, or run
a grid-refinement convergence study. Emits a JSON report plus field dumps
(CSV, binary, or gnuplot tables).

Exit codes: 0 success; 1 hard failure (bad input, empty interior, cannot
write output);
2 diagnostics complete but J~ undefined because of vortices; 3 eigensolver
non-convergence (partial report still written).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analytic, catalog, currents, exprlang, fieldio, madelung
from .currents import PhysicalParams
from .grid import ComplexField, GridSpec, ScalarField

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VORTEX = 2
EXIT_NO_CONVERGENCE = 3

_DUMP = {
    "csv": (".csv", fieldio.write_csv),
    "bin": (".mfld", fieldio.write_binary),
    "gnuplot": (".dat", fieldio.write_gnuplot),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for the vortex
    # outcome, so route usage errors to the hard-failure code instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _fold_dash_values(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Fold `--flag value` into `--flag=value` when the value starts with '-'
    (negative numbers such as -1e1, expressions such as -exp(x)), which argparse
    would take for an option. Every option of any subcommand that takes one
    value qualifies; a token that is itself an option string is never folded."""
    takes_one, options = set(), set()
    parsers = [parser]
    for p in parsers:
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            options.update(action.option_strings)
            if action.nargs is None:
                takes_one.update(action.option_strings)
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok in takes_one and value.startswith("-")
                and value.partition("=")[0] not in options):
            out.append(f"{tok}={value}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# --- argument plumbing -------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", default="65x65", metavar="NXxNY",
                   help="grid resolution (default 65x65)")
    p.add_argument("--domain", default="-3,3,-3,3", metavar="X0,X1,Y0,Y1",
                   help="physical domain; cells sit at interior points "
                        "x0 + k*h with h = (x1-x0)/(nx+1)")
    p.add_argument("--grid-raw", default=None, metavar="NX,NY,X0,Y0,DX,DY",
                   help="explicit grid spec; overrides --grid/--domain")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--node-threshold", type=float, default=madelung.DEFAULT_NODE_THRESHOLD)
    p.add_argument("--potential", default=None, metavar="EXPR",
                   help="potential V(x,y) expression")


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None,
                   help="property tolerance (default: max(10 h^2, 1e-8) scaled)")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="output directory (default $MADELUNG_OUT or ./madelab-out)")
    p.add_argument("--dump", choices=sorted(_DUMP), default="bin",
                   help="field dump format (default bin)")


def _add_state_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--psi", default=None, metavar="EXPR",
                     help="wavefunction expression in x, y")
    src.add_argument("--builtin", default=None, choices=catalog.BUILTIN_NAMES,
                     help="closed-form catalog state")
    p.add_argument("--energy", type=float, default=None,
                   help="state energy for the Hamilton-Jacobi residual")
    p.add_argument("--k1", type=float, default=1.0, help="plane_wave k1")
    p.add_argument("--k2", type=float, default=0.0, help="plane_wave k2")
    p.add_argument("--l", type=int, default=1, help="ho_vortex winding")
    p.add_argument("--n1", type=int, default=1, help="box_mode n1")
    p.add_argument("--n2", type=int, default=1, help="box_mode n2")
    p.add_argument("--sigma", type=float, default=1.0, help="gauss_real width")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="madelab",
        allow_abbrev=False,
        description="Amplitude/phase decomposition diagnostics for stationary "
                    "quantum states on 2D grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="diagnose a closed-form or builtin state",
                        allow_abbrev=False)
    _add_common(pa)
    _add_report(pa)
    _add_state_source(pa)

    ps = sub.add_parser("solve", help="solve the Schrodinger eigenproblem, then diagnose",
                        allow_abbrev=False)
    _add_common(ps)
    _add_report(ps)
    ps.add_argument("--count", type=int, default=1, help="number of eigenpairs")
    ps.add_argument("--solver-tol", type=float, default=1e-6,
                    help="eigenpair residual tolerance")
    ps.add_argument("--max-iter", type=int, default=5000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--combine", default=None, metavar="I,J,...:C1,C2,...",
                    help="combine degenerate eigenstates, e.g. 1,2:1,i")
    ps.add_argument("--state-index", type=int, default=0,
                    help="eigenstate to diagnose when --combine is absent")

    pc = sub.add_parser("convergence", help="refinement study; CSV on stdout",
                        allow_abbrev=False)
    _add_common(pc)
    _add_state_source(pc)
    pc.add_argument("--levels", type=int, default=3, help="number of refinements, at least 2")
    return parser


def _parse_grid(args) -> GridSpec:
    if args.grid_raw is not None:
        try:
            nx, ny, x0, y0, dx, dy = args.grid_raw.split(",")
            raw = int(nx), int(ny), float(x0), float(y0), float(dx), float(dy)
        except ValueError as err:
            raise ValueError(
                f"bad --grid-raw {args.grid_raw!r}: expected NX,NY,X0,Y0,DX,DY") from err
        return GridSpec(*raw)
    try:
        nx, ny = (int(t) for t in args.grid.lower().split("x"))
    except ValueError as err:
        raise ValueError(f"bad --grid {args.grid!r}: expected NXxNY") from err
    try:
        x0, x1, y0, y1 = (float(t) for t in args.domain.split(","))
    except ValueError as err:
        raise ValueError(f"bad --domain {args.domain!r}") from err
    if not (x1 > x0 and y1 > y0):
        raise ValueError("--domain needs x1 > x0 and y1 > y0")
    dx = (x1 - x0) / (nx + 1)
    dy = (y1 - y0) / (ny + 1)
    return GridSpec(nx, ny, x0 + dx, y0 + dy, dx, dy)


def _params(args) -> PhysicalParams:
    return PhysicalParams(hbar=args.hbar, mass=args.mass)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("MADELUNG_OUT") or "madelab-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _builtin_params(args) -> dict:
    return {"k1": args.k1, "k2": args.k2, "l": args.l,
            "n1": args.n1, "n2": args.n2, "sigma": args.sigma}


def _state_from_args(args, spec: GridSpec, p: PhysicalParams):
    """Returns (psi, energy-or-None, provenance dict)."""
    if args.energy is not None and not np.isfinite(args.energy):
        raise ValueError("--energy must be finite")
    if args.psi is not None:
        expr = exprlang.parse(args.psi)
        psi = exprlang.eval_field(expr, spec)
        return psi, args.energy, {"source": "expression", "psi": args.psi}
    psi, energy = catalog.builtin_state(args.builtin, _builtin_params(args), spec, p)
    if args.energy is not None:
        energy = args.energy
    prov = {"source": "builtin", "name": args.builtin,
            "params": _builtin_params(args)}
    return psi, energy, prov


def _potential_field(args, spec: GridSpec) -> ScalarField | None:
    if args.potential is None:
        return None
    expr = exprlang.parse(args.potential)
    vf = exprlang.eval_field(expr, spec)
    V = ScalarField(spec, vf.values.real)
    if not V.mask.any():
        raise ValueError("potential is non-finite at every cell")
    return V


def _parse_combine(text: str) -> tuple[list[int], list[complex]]:
    try:
        idx_part, coeff_part = text.split(":")
        indices = [int(t) for t in idx_part.split(",")]
        coeffs = [exprlang.evaluate(exprlang.parse(t), 0.0, 0.0)
                  for t in coeff_part.split(",")]
    except (ValueError, exprlang.ParseError) as err:
        raise ValueError(f"bad --combine {text!r}: {err}") from err
    return indices, coeffs


# --- diagnostics pipeline ----------------------------------------------------

@dataclass
class Diagnosis:
    """Everything one pass over a state produces; each quantity once."""
    psi: ComplexField
    m: madelung.MadelungFields
    c: currents.CurrentFields
    r: analytic.AnalyticityReport
    tol: float
    norms: dict
    verdicts: dict


def diagnose(
    psi: ComplexField,
    p: PhysicalParams,
    node_threshold: float,
    tol: float | None = None,
    V: ScalarField | None = None,
    E: float | None = None,
) -> Diagnosis:
    m = madelung.decompose(psi, node_threshold)
    c = currents.compute_currents(m, p, V=V, E=E)
    r = analytic.analyze(m)
    if tol is None:
        tol = analytic.default_tolerance(m)
    norms = analytic.norm_table(m, c, r)
    verdicts = analytic.verdicts(norms, analytic.gradS_max(m), tol)
    return Diagnosis(psi, m, c, r, tol, norms, verdicts)


def vortex_summary(m) -> dict:
    plaquettes = m.vortex_plaquettes()
    return {
        "plaquettes": [list(t) for t in plaquettes[:50]],
        "holes": [list(t) for t in m.holes[:50]],
        "count": len(plaquettes),
        "total_winding": int(sum(w for _, _, w in plaquettes + m.holes)),
        "unwrapped": m.I_unwrapped is not None,
    }


def _collect_fields(d: Diagnosis) -> dict:
    m, c, r = d.m, d.c, d.r
    fields = {
        "S": m.S,
        "gradS.x": ScalarField(m.spec, m.gradS.vx),
        "gradS.y": ScalarField(m.spec, m.gradS.vy),
        "gradI.x": ScalarField(m.spec, m.gradI.vx),
        "gradI.y": ScalarField(m.spec, m.gradI.vy),
        "rho": c.rho,
        "J.x": ScalarField(m.spec, c.J.vx),
        "J.y": ScalarField(m.spec, c.J.vy),
        "divJ": c.divJ,
        "defectC": c.defectC,
        "defectA": c.defectA,
        "U": c.U,
        "deBroglie": c.deBroglie,
        "orth": r.orth,
        "crStrict": r.crStrict,
        "harmS": r.harmS,
        "harmI": r.harmI,
    }
    if m.I_unwrapped is not None:
        fields["I"] = m.I_unwrapped
    if c.Jtilde is not None:
        fields["Jtilde.x"] = ScalarField(m.spec, c.Jtilde.vx)
        fields["Jtilde.y"] = ScalarField(m.spec, c.Jtilde.vy)
        fields["divJtilde"] = c.divJtilde
    if c.qhjResidual is not None:
        fields["qhjResidual"] = c.qhjResidual
    return fields


def dump_fields(psi, fields: dict, out_dir: Path, fmt: str) -> list[dict]:
    """Write psi (`.re`, `.im`) and each field in name order, one file
    each, and list every file with its SHA-256 in that order. The files are
    shared out over the CPUs this process may run on; which process writes
    a file changes neither its bytes nor the list."""
    jobs = _dump_jobs(psi, fields, out_dir, fmt)
    digests = _run_split(jobs, _worker_count(len(jobs)))
    return [{"path": path.name, "sha256": digest}
            for (_, _, path), digest in zip(jobs, digests)]


def _dump_jobs(psi, fields: dict, out_dir: Path, fmt: str) -> list[tuple]:
    """(writer, field, path) per dump file, in manifest order."""
    ext, writer = _DUMP[fmt]
    psi_writer = writer if fmt != "gnuplot" else fieldio.write_binary
    jobs = [(psi_writer, part, path)
            for part, path in fieldio.complex_parts(psi, out_dir / f"psi{ext}")]
    return jobs + [(writer, f, out_dir / f"{name}{ext}") for name, f in sorted(fields.items())]


def _worker_count(n_jobs: int) -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_jobs)


def _run_split(jobs: list, workers: int) -> list[str]:
    """Run `jobs[k::workers]` in forked child k (1 <= k < workers) and
    `jobs[0::workers]` here; return every job's digest in job order.

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
        digests[0::workers] = _write_and_hash(jobs[0::workers])
    finally:
        replies = [_reap(pid, r) for pid, r in children]
    failures = [text or f"dump worker ended with code {code}" for code, text in replies if code]
    if failures:
        raise OSError("; ".join(failures))
    for k, (_, text) in enumerate(replies, 1):
        digests[k::workers] = text.split()
    return digests


def _reap(pid: int, fd: int) -> tuple[int, str]:
    """Read a dump worker's reply to the end, then wait for it to exit."""
    with open(fd) as fh:
        text = fh.read()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), text


def _dump_worker(jobs: list, fd: int):
    """The body of a forked child: never returns into the caller. It leaves
    through `os._exit`, so no atexit handler runs and no stdio buffer
    copied from the parent is flushed a second time."""
    status = 1
    try:
        try:
            text, code = "\n".join(_write_and_hash(jobs)), 0
        except BaseException as err:
            text, code = f"{type(err).__name__}: {err}", 1
        with open(fd, "w") as fh:
            fh.write(text)
        status = code
    finally:
        os._exit(status)


def _write_and_hash(jobs: list) -> list[str]:
    return [writer(field, path) for writer, field, path in jobs]


def _listed_dumps(out_dir: Path) -> set[str]:
    """The dumps that the report still in `out_dir` lists. Only bare file
    names count; an unreadable old report lists nothing."""
    try:
        old = json.loads((out_dir / "report.json").read_text())["manifest"]
        return {n for n in (e["path"] for e in old) if isinstance(n, str)
                and Path(n).name == n and n not in ("", "..", "report.json")}
    except (OSError, ValueError, LookupError, TypeError):
        return set()


def _drop_dumps(out_dir: Path, names: set[str]) -> None:
    """Delete the named dumps from `out_dir`, skipping any entry that cannot
    be removed (a directory in a dump's place, say)."""
    for name in names:
        with contextlib.suppress(OSError):
            (out_dir / name).unlink(missing_ok=True)


def write_report(report: dict, out_dir: Path) -> Path:
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return path


def _config_echo(args) -> dict:
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def build_report(args, d: Diagnosis | None = None, **entries) -> dict:
    """The `madelab-report/2` dict: the header, the diagnosis if there is
    one, then `entries` (state, solver output, or the error)."""
    report = {
        "schema": "madelab-report/2",
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": _config_echo(args),
    }
    if d is not None:
        spec = d.m.spec
        report.update({
            "grid": {"nx": spec.nx, "ny": spec.ny, "x0": spec.x0, "y0": spec.y0,
                     "dx": spec.dx, "dy": spec.dy},
            "tolerance": d.tol,
            "norms": d.norms,
            "vortices": vortex_summary(d.m),
            "properties": {name: {k: v for k, v in asdict(verdict).items()
                                  if k != "note" or v}
                           for name, verdict in d.verdicts.items()},
        })
    report.update(entries)
    return report


def _finish(args, out_dir: Path, d: Diagnosis, **entries) -> int:
    """Dump the fields, write the full report and pick the exit code. The
    previous report goes before the first dump, so a failed write leaves no
    report naming files it overwrote; the failure also deletes the dumps
    that report listed and every file this run meant to write, so it leaves
    no dump either. A run that completes deletes the listed dumps it did
    not write."""
    report = build_report(args, d, **entries)
    listed = _listed_dumps(out_dir)
    (out_dir / "report.json").unlink(missing_ok=True)
    fields = _collect_fields(d)
    try:
        report["manifest"] = dump_fields(d.psi, fields, out_dir, args.dump)
        _drop_dumps(out_dir, listed - {e["path"] for e in report["manifest"]})
        path = write_report(report, out_dir)
    except BaseException:
        jobs = _dump_jobs(d.psi, fields, out_dir, args.dump)
        _drop_dumps(out_dir, listed | {p.name for *_, p in jobs} | {"report.json"})
        raise
    print(f"report written to {path}")
    if d.m.I_unwrapped is None:
        print("note: phase has vortices; J~ is unavailable", file=sys.stderr)
        return EXIT_VORTEX
    return EXIT_OK


# --- subcommands -------------------------------------------------------------

def cmd_analyze(args) -> int:
    spec = _parse_grid(args)
    p = _params(args)
    out_dir = _out_dir(args)
    psi, energy, provenance = _state_from_args(args, spec, p)
    V = _potential_field(args, spec)
    d = diagnose(psi, p, args.node_threshold, tol=args.tol, V=V, E=energy)
    state = {**provenance, "energy": energy if energy is not None else "n/a"}
    return _finish(args, out_dir, d, state=state)


def cmd_solve(args) -> int:
    from . import spectral  # the one module that needs scipy; loaded by solve only

    spec = _parse_grid(args)
    p = _params(args)
    out_dir = _out_dir(args)
    if args.potential is None:
        raise ValueError("solve requires --potential")
    V = _potential_field(args, spec)
    combination = None if args.combine is None else _parse_combine(args.combine)
    H = spectral.assemble(V, p)
    try:
        sol = spectral.solve_lowest(
            H, args.count, tol=args.solver_tol, max_iter=args.max_iter, seed=args.seed
        )
    except spectral.EigenConvergenceError as err:
        report = build_report(args, error=str(err), energies=err.energies,
                              solver_residuals=err.residuals)
        _drop_dumps(out_dir, _listed_dumps(out_dir))
        path = write_report(report, out_dir)
        print(f"eigensolver did not converge; partial report at {path}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    if combination is not None:
        psi, energy = spectral.combine(sol, *combination)
        provenance = {"source": "solve+combine", "potential": args.potential,
                      "combine": args.combine}
    else:
        idx = args.state_index
        if not 0 <= idx < len(sol.states):
            raise ValueError(f"--state-index {idx} out of range 0..{len(sol.states) - 1}")
        psi, energy = sol.states[idx], sol.energies[idx]
        provenance = {"source": "solve", "potential": args.potential,
                      "state_index": idx}

    d = diagnose(psi, p, args.node_threshold, tol=args.tol, V=V, E=energy)
    return _finish(args, out_dir, d, state={**provenance, "energy": energy},
                   energies=sol.energies, solver_residuals=sol.residuals)


_CONV_METRICS = ("orth", "crStrict", "harmI", "defectC", "defectA", "divJ", "qhjResidual")
ROUNDOFF_FLOOR = 1e-12


def cmd_convergence(args) -> int:
    base = _parse_grid(args)
    p = _params(args)
    if args.levels < 2:
        raise ValueError("--levels needs at least 2 refinements")
    rows = []
    for k in range(args.levels):
        factor = 2**k
        nx = (base.nx + 1) * factor - 1
        ny = (base.ny + 1) * factor - 1
        spec = GridSpec(nx, ny, base.x0 - base.dx + base.dx / factor,
                        base.y0 - base.dy + base.dy / factor,
                        base.dx / factor, base.dy / factor)
        psi, energy, _ = _state_from_args(args, spec, p)
        V = _potential_field(args, spec)
        d = diagnose(psi, p, args.node_threshold, V=V, E=energy)
        rows.append((max(spec.dx, spec.dy),
                     {key: analytic.table_max(d.norms[key]) for key in _CONV_METRICS}))

    def fmt(v):
        return "na" if v is None else repr(v)

    print("h," + ",".join(_CONV_METRICS))
    for h, norms in rows:
        print(repr(h) + "," + ",".join(fmt(norms[k]) for k in _CONV_METRICS))
    orders = []
    for key in _CONV_METRICS:
        vals = [norms[key] for _, norms in rows]
        if any(v is None or v < ROUNDOFF_FLOOR for v in vals):
            orders.append("na")
            continue
        hs = np.log([h for h, _ in rows])
        ys = np.log(vals)
        slope = float(np.polyfit(hs, ys, 1)[0])
        orders.append(f"{slope:.3f}")
    print("order," + ",".join(orders))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    handlers = {"analyze": cmd_analyze, "solve": cmd_solve,
                "convergence": cmd_convergence}
    try:
        args = parser.parse_args(_fold_dash_values(list(argv), parser))
        return handlers[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as err:
        # the subcommands touch the file system only to create --out and
        # write the dumps and report.json into it
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
