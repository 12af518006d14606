"""Command-line entry point: analyze a state, solve for eigenstates, or run
a grid-refinement convergence study. Holds the options, the pipeline, the
report and `_Output`, which publishes the JSON report and the field dumps
(CSV, binary, or gnuplot tables) that the dumpers of `madelab.dumps` write.

Exit codes: 0 success; 1 hard failure (bad input, empty interior, cannot
write output; a refused analyze or solve writes a report of the error
alone); 2 diagnostics complete but J~ undefined because of vortices; 3
eigensolver non-convergence (partial report still written).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import analytic, catalog, currents, dumps, exprlang, fieldio, madelung
from .currents import PhysicalParams
from .grid import ComplexField, GridSpec, ScalarField, VectorField

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

    # a token that is none of this parser's option strings, alone or before
    # '=', is a value such as -1e1 or -exp(x); subparsers share this class
    def _parse_optional(self, arg_string):
        if arg_string.partition("=")[0] not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


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
    src = p.add_mutually_exclusive_group()
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
    parser.commands = sub.choices  # the subcommands' parsers, whose usage `main` may print
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
    path = Path(args.out or os.environ.get("MADELUNG_OUT") or "madelab-out")
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
    vf = exprlang.eval_field(exprlang.parse(args.potential), spec)
    V = ScalarField(spec, vf.values.real)
    if not V.mask.any():
        raise ValueError("potential is non-finite at every cell")
    # H needs V real: an imaginary part beyond rounding is refused, not dropped
    im, re = np.abs(vf.values.imag[V.mask]).max(), np.abs(V.values[V.mask]).max()
    if not im <= 8 * np.finfo(float).eps * max(re, 1.0):
        raise ValueError(f"potential must be real: max |Im V| is {im:.3g}, max |Re V| {re:.3g}")
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
    """What the report and `convergence` read of one pass over a state."""
    m: madelung.MadelungFields
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
    out: _Output | None = None,
) -> Diagnosis:
    """One pass over a state. With `out`, psi and then each stage's fields
    are handed to it by dump name as soon as they are final, so a binary dump
    is written while the rest of the pass runs; a field the state lacks is None."""
    add = out.add if out is not None else lambda fields: None
    add({"psi": psi})
    m = madelung.decompose(psi, node_threshold)
    add({
        "S": m.S,
        "gradS": m.gradS,
        "gradI": m.gradI,
        "orth": m.cross,
        "harmS": m.lapS,
        "harmI": m.lapI,
        "I": m.I_unwrapped,
    })
    c = currents.compute_currents(m, p, V=V, E=E)
    r = analytic.analyze(m)
    add({
        "rho": c.rho,
        "J": c.J,
        "divJ": c.divJ,
        "defectC": c.defectC,
        "defectA": c.defectA,
        "U": c.U,
        "deBroglie": c.deBroglie,
        "crStrict": r.crStrict,
        "Jtilde": c.Jtilde,
        "divJtilde": c.divJtilde,
        "qhjResidual": c.qhjResidual,
    })
    if tol is None:
        tol = analytic.default_tolerance(m)
    norms = analytic.norm_table(m, c, r)
    verdicts = analytic.verdicts(norms, tol)
    return Diagnosis(m, tol, norms, verdicts)


def vortex_summary(m) -> dict:
    plaquettes = m.vortex_plaquettes()
    return {
        "plaquettes": [list(t) for t in plaquettes[:50]],
        "holes": [list(t) for t in m.holes[:50]],
        "count": len(plaquettes),
        "total_winding": int(sum(w for _, _, w in plaquettes + m.holes)),
        "unwrapped": m.I_unwrapped is not None,
    }


def dump_fields(jobs: list[tuple], dumper: dumps.Writer | dumps.Split) -> list[dict]:
    """List every file of the `_dump_jobs` list handed to `dumper` with its
    SHA-256, in job order, once all are written; a failed write raises here.
    Which thread or process wrote a file changes neither its bytes nor the list."""
    done = dumper.wait()
    return [{"path": path.name, "sha256": done[path]} for *_, path in jobs]


def _dump_jobs(fields: dict, out_dir: Path, fmt: str) -> list[tuple]:
    """(writer, field, path) per dump file of `fields` (name -> field), in
    manifest order: "psi" first, then the rest by name. A `ComplexField` gives
    `.re`/`.im` parts (binary in a gnuplot run too), a `VectorField` `.x`/`.y`
    parts, both views; None gives no file, any other field one."""
    jobs = []
    for name in sorted(fields, key=lambda name: (name != "psi", name)):
        ext, writer = _DUMP[fmt]
        f, path = fields[name], out_dir / f"{name}{ext}"
        if isinstance(f, ComplexField):
            w = writer if fmt != "gnuplot" else fieldio.write_binary
            jobs += [(w, part, part_path) for part, part_path in fieldio.complex_parts(f, path)]
        elif isinstance(f, VectorField):
            jobs += [(writer, fieldio.Part(f.spec, f.vx), out_dir / f"{name}.x{ext}"),
                     (writer, fieldio.Part(f.spec, f.vy), out_dir / f"{name}.y{ext}")]
        elif f is not None:
            jobs.append((writer, f, path))
    return jobs


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


class _Output:
    """The one owner of `--out` in a run, as a context manager: it dumps the
    fields handed to `add` in format `fmt` (None: no dumps), then publishes
    the report. It first deletes the old report, then every dump that report
    listed, so once its dumps begin a run stopped or killed leaves neither a
    report naming files it overwrote nor the last run's dumps; if that report
    cannot be deleted, nothing is touched. On any exception in the block (a
    failed write, a refusal after the dumps began, an interrupt) the dumper is
    stopped, every file this run meant to write and its report are deleted,
    and the exception goes on. `publish` waits for the dumper (a `dumps.Writer`
    for `bin`, else a `dumps.Split`), so no thread or child outlives the block."""

    def __init__(self, out_dir: Path, fmt: str | None):
        self.out_dir, self.fmt = out_dir, fmt
        listed = _listed_dumps(out_dir)
        (out_dir / "report.json").unlink(missing_ok=True)
        _drop_dumps(out_dir, listed)
        self.fields: dict = {}
        self.dumper = dumps.Writer() if fmt == "bin" else dumps.Split()

    def __enter__(self) -> _Output:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        if kind is not None:
            self.dumper.stop()
            _drop_dumps(self.out_dir, {path.name for *_, path in self.jobs()} | {"report.json"})

    def add(self, fields: dict) -> None:
        """Hand `fields` (name -> field) to the dumper; nothing writes to
        them from here on."""
        self.fields.update(fields)
        self.dumper.put(_dump_jobs(fields, self.out_dir, self.fmt))

    def jobs(self) -> list[tuple]:
        return _dump_jobs(self.fields, self.out_dir, self.fmt)

    def publish(self, report: dict) -> Path:
        """Finish the dumps, list them in `report["manifest"]` (no dumps,
        no manifest), then write the report; return its path."""
        jobs = self.jobs()
        if jobs:
            report["manifest"] = dump_fields(jobs, self.dumper)
        return write_report(report, self.out_dir)


def _publish(out_dir: Path, report: dict) -> Path:
    """Publish a report that has no dumps."""
    with _Output(out_dir, None) as out:
        return out.publish(report)


def _config_echo(args) -> dict:
    """The parsed options but `command`. A non-finite float is echoed as
    the string `repr` gives it ("inf", "-inf", "nan"), which strict JSON
    can hold, so a run refused for one still writes its report."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in sorted(vars(args).items()) if k != "command"}


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


def _finish(args, out: _Output, d: Diagnosis, **entries) -> int:
    """Publish the full report with the diagnosis' dumps and pick the exit
    code."""
    path = out.publish(build_report(args, d, **entries))
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
    with _Output(out_dir, args.dump) as out:
        d = diagnose(psi, p, args.node_threshold, tol=args.tol, V=V, E=energy, out=out)
        state = {**provenance, "energy": energy if energy is not None else "n/a"}
        return _finish(args, out, d, state=state)


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
        path = _publish(out_dir, report)
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

    with _Output(out_dir, args.dump) as out:
        d = diagnose(psi, p, args.node_threshold, tol=args.tol, V=V, E=energy, out=out)
        return _finish(args, out, d, state={**provenance, "energy": energy},
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

    print("h," + ",".join(_CONV_METRICS))
    for h, norms in rows:
        cells = ("na" if norms[k] is None else repr(norms[k]) for k in _CONV_METRICS)
        print(repr(h) + "," + ",".join(cells))
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
    handlers = {"analyze": cmd_analyze, "solve": cmd_solve,
                "convergence": cmd_convergence}
    args = None
    try:
        parsed = parser.parse_args(argv)
        # not argparse's required group, which is checked before a misspelt option is named
        if parsed.command != "solve" and parsed.psi is None and parsed.builtin is None:
            parser.commands[parsed.command].error(
                "one of the arguments --psi --builtin is required")
        args = parsed
        return handlers[args.command](args)
    except (ValueError, MemoryError) as err:
        error = f"out of memory: {err}" if isinstance(err, MemoryError) else str(err)
        print(f"error: {error}", file=sys.stderr)
        if args is not None and args.command != "convergence":
            # the refusal replaces whatever the last run left in --out
            try:
                _publish(_out_dir(args), build_report(args, error=error))
            except (OSError, ValueError) as write_err:
                print(f"error: cannot write output: {write_err}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as err:
        # the subcommands touch the file system only to create --out and
        # write the dumps and report.json into it
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
