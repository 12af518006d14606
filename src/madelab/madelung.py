"""Decompose a complex field psi = exp(S + iI) into log-amplitude and
phase derivatives without global unwrapping, detect phase vortices, and
optionally produce an unwrapped phase field.

All derivatives of S and I come from the complex log-derivative
grad(psi)/psi and the identity lap(psi)/psi = (gS + i gI)^2 + lapS + i lapI,
never from differentiating ln|psi| or a wrapped phase.

The phase layer works in whole turns. theta = angle(psi), 0 on invalid
cells, and one turn count s per edge are formed once (`phase_differences`):
the wrapped step along an edge is theta_b - theta_a + 2 pi s, and -s turns
the other way. The angles cancel round a plaquette, so its circulation
(Goldstein, Zebker & Werner, Radio Sci. 23 (1988) 713) is the integer sum
of its four counts. These give the windings of plaquettes of valid cells
(`residues`) and the charges of holes, vortex cores hidden in masked cells
(`hole_charges`). A real state times any global phase steps by pi within
the band of `_turns` across its nodal lines, so it winds nowhere.

`decompose` unwraps only when no plaquette winds and no hole is charged.
Then the counts sum to zero round every cycle of valid cells, and I = theta
+ 2 pi n with n exact integers: Itoh's method (Appl. Opt. 21 (1982) 2470)
in whole turns, on a spanning tree of row runs, the maximal horizontal
segments of valid cells, as in the region-based trees of Ghiglia & Pritt,
Two-Dimensional Phase Unwrapping (Wiley 1998). One table of row runs
(`_row_runs`) serves this tree and the holes. n = 0 at the anchor of each
valid component, its cell of largest |psi|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (
    ComplexField,
    ScalarField,
    VectorField,
    interior_mask,
    raw_gradient,
    raw_laplacian,
)

DEFAULT_NODE_THRESHOLD = 1e-8

_TWO_PI = 2.0 * np.pi
_BAND = 2.0 * np.spacing(np.pi)  # a step this close to +-pi counts no turn, see _turns


class DecomposeError(ValueError):
    """Raised when too few valid cells remain to analyze."""


class VortexError(ValueError):
    """Nonzero phase winding obstructs global unwrapping.

    `plaquettes` lists (j, i, winding) per winding plaquette, (j, i) its
    lower-left cell, and `holes` (j, i, charge) per charged hole.
    """

    def __init__(self, plaquettes, holes=()):
        self.plaquettes, self.holes = list(plaquettes), list(holes)
        super().__init__(
            f"phase has {len(self.plaquettes)} plaquette(s) with nonzero winding and "
            f"{len(self.holes)} charged hole(s); I is not globally definable"
        )


@dataclass
class MadelungFields:
    S: ScalarField
    gradS: VectorField
    gradI: VectorField
    lapS: ScalarField
    lapI: ScalarField
    cross: ScalarField             # gradS . gradI, the cross term of lap(psi)/psi
    gS2: np.ndarray                # |gradS|^2 (lapS, U, tolerance), NaN where gradS is invalid
    gI2: np.ndarray                # |gradI|^2 (lapS, QHJ residual), NaN where gradI is invalid
    node_mask: np.ndarray          # True = too close to a node of psi
    residues: np.ndarray           # (ny-1, nx-1) winding per plaquette, 0 if uncomputable
    holes: list[tuple[int, int, int]]  # (j, i, charge) per charged hole, see hole_charges
    I_unwrapped: ScalarField | None = None

    @property
    def spec(self):
        return self.S.spec

    def vortex_plaquettes(self) -> list[tuple[int, int, int]]:
        return _winding_plaquettes(self.residues)


def _winding_plaquettes(winding: np.ndarray) -> list[tuple[int, int, int]]:
    """(j, i, winding) per winding plaquette, row-major."""
    js, iis = np.nonzero(winding)
    return list(zip(js.tolist(), iis.tolist(), winding[js, iis].tolist()))


def _turns(d: np.ndarray) -> np.ndarray:
    """Whole turns s, as int8, that wrap phase differences d, |d| <= 2 pi as
    for two angles, to d + 2 pi s in [-pi - b, pi + b], b = _BAND: x = pi - d,
    in [-pi, 3 pi], counts a turn only where it lies more than b outside
    [0, 2 pi]. Outside the band s is the turn of pi - mod(pi - d, 2 pi); a
    step of exactly +-pi counts 0, so _turns stays odd at +-pi. The limit: a
    step within b of +-pi, which the grid resolves neither way, counts 0
    turns, so rounded pi steps, as on the nodal lines of a real state,
    cancel."""
    x = np.pi - d
    return (x > _TWO_PI + _BAND).astype(np.int8) - (x < -_BAND)


class PhaseDifferences(NamedTuple):
    """theta = angle(psi) in (-pi, pi], reading a -0 imaginary part as +0,
    and one turn count per edge: the wrapped steps are theta[j, i+1] -
    theta[j, i] + 2 pi sx[j, i] and theta[j+1, i] - theta[j, i] + 2 pi
    sy[j, i]. The step the other way counts -sx or -sy turns. theta is 0 on
    invalid cells, so every edge has a count."""

    theta: np.ndarray
    sx: np.ndarray
    sy: np.ndarray


def phase_differences(psi: ComplexField) -> PhaseDifferences:
    v = psi.values
    t = np.arctan2(v.imag + 0.0, v.real)
    t[~psi.mask] = 0.0
    return PhaseDifferences(t, _turns(t[:, 1:] - t[:, :-1]), _turns(t[1:] - t[:-1]))


def residues(psi: ComplexField, diffs: PhaseDifferences | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
    """Integer winding number per 2x2 plaquette of valid cells.

    Returns (residues, computable_mask); plaquettes touching masked cells
    are reported as indeterminate (mask False) with winding 0. `diffs` is
    `phase_differences(psi)` when the caller already has it.
    """
    m = psi.mask
    ok = m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
    return np.where(ok, _circulation(psi, diffs), 0), ok


def _circulation(psi: ComplexField, diffs: PhaseDifferences | None) -> np.ndarray:
    # turns counterclockwise: (j,i) -> (j,i+1) -> (j+1,i+1) -> (j+1,i) -> (j,i)
    _, sx, sy = phase_differences(psi) if diffs is None else diffs
    return sx[:-1] + sy[:, 1:] - sx[1:] - sy[:, :-1]


def _row_runs(mask: np.ndarray, reach: int) -> tuple[np.ndarray, ...]:
    """Row runs of mask, its maximal horizontal segments of True cells, as
    arrays row, lo, hi (first and last column), row-major; and the pairs
    (p, q) of runs in adjacent rows, p below q, whose columns overlap once q
    is widened by `reach` cells: 0 for a shared vertical edge, 1 for
    8-neighbours. Two intervals overlap in one interval or none, so touching
    runs give one pair however many cells they share; the runs touching p are
    consecutive, so two searches over the run intervals find them. Pairs go
    by p, then q: for reach 0, by lower row, then first shared column."""
    j, c = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    row, lo, hi = j[::2], c[::2], c[1::2] - 1
    w = mask.shape[1] + 1  # keys row * w + column: a widened column stays in its row
    first = np.searchsorted(row * w + hi, (row + 1) * w + lo - reach)
    end = np.searchsorted(row * w + lo, (row + 1) * w + hi + reach, side="right")
    count = np.maximum(end - first, 0)
    p = np.repeat(np.arange(row.size), count)
    return row, lo, hi, p, np.arange(p.size) + np.repeat(first - np.cumsum(count) + count, count)


def hole_charges(psi: ComplexField, diffs: PhaseDifferences | None = None
                 ) -> list[tuple[int, int, int]]:
    """(j, i, charge) per charged hole, by its first cell (j, i), row-major.
    A hole is an 8-connected component of invalid cells off the grid edge;
    a plaquette's cells are 8-neighbours, so it touches one hole at most.
    The charge, the winding round a hole, sums those plaquettes'
    circulations, in turns."""
    invalid = ~psi.mask
    if not invalid[1:-1, 1:-1].any():
        return []
    row, lo, hi, lower, upper = _row_runs(invalid, 1)  # 8-neighbours join
    parent = list(range(row.size))

    def find(r: int) -> int:
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for p, q in zip(lower.tolist(), upper.tolist()):
        p, q = sorted((find(p), find(q)))
        parent[q] = p  # each root is its component's first run
    label = np.zeros(invalid.shape, np.int32)
    label[invalid] = np.repeat([find(r) + 1 for r in range(row.size)], hi - lo + 1)
    corner = np.maximum(np.maximum(label[:-1, :-1], label[:-1, 1:]), label[1:, :-1])
    np.maximum(corner, label[1:, 1:], out=corner)
    charge = np.bincount(corner.ravel(), _circulation(psi, diffs).ravel())
    charge[np.concatenate([label[0], label[-1], label[:, 0], label[:, -1]])] = 0
    return [(int(row[r]), int(lo[r]), int(charge[r + 1])) for r in np.flatnonzero(charge[1:])]


def _run_tree(amp: np.ndarray, valid: np.ndarray, diffs: PhaseDifferences) -> np.ndarray:
    """I = theta + 2 pi n on every valid cell, n = 0 at the largest |psi| of
    each valid component (see unwrap_phase)."""
    theta, sx, sy = diffs
    row, lo, hi, lower, upper = _row_runs(valid, 0)

    # Each run's largest |psi| and its first cell holding it: runs are
    # contiguous among the row-major valid cells.
    size = hi - lo + 1
    offset = np.cumsum(size) - size
    amp = amp[valid]
    peak = np.maximum.reduceat(amp, offset)
    at_peak = np.flatnonzero(amp == np.repeat(peak, size))
    peak_col = lo + at_peak[np.searchsorted(at_peak, offset)] - offset

    # turns[j, i] sums sx along row j up to column i, and n is turns plus
    # one base per run. Runs p below and q above share a vertical edge at
    # their first shared column c, where n steps by sy: base[q] - base[p] =
    # step.
    turns = np.zeros(valid.shape, np.int32)
    np.cumsum(sx, axis=1, out=turns[:, 1:])
    j, c = row[lower], np.maximum(lo[lower], lo[upper])
    step = turns[j, c] + sy[j, c] - turns[j + 1, c]
    ways = [[] for _ in range(row.size)]
    for p, q, s in zip(lower.tolist(), upper.tolist(), step.tolist()):
        ways[p].append((q, s))
        ways[q].append((p, -s))

    # A breadth-first pass over each component from its largest |psi|, where
    # n = 0, the first run first on a tie.
    base = [None] * row.size
    for seed in np.argsort(-peak, kind="stable").tolist():
        if base[seed] is None:
            base[seed] = -int(turns[row[seed], peak_col[seed]])
            queue = [seed]
            for r in queue:
                for kid, s in ways[r]:
                    if base[kid] is None:
                        base[kid] = base[r] + s
                        queue.append(kid)
    turns[valid] += np.repeat(base, size)  # now n
    I = _TWO_PI * turns
    np.add(theta, I, out=I)
    I[~valid] = np.nan
    return I


def unwrap_phase(psi: ComplexField, winding: np.ndarray | None = None,
                 diffs: PhaseDifferences | None = None,
                 holes: list[tuple[int, int, int]] | None = None) -> ScalarField:
    """Unwrap the phase of psi on every valid cell.

    I = theta + 2 pi n, with theta = angle(psi) and n the whole turns of
    Itoh's method: the turn counts summed along a spanning tree of row runs,
    the maximal horizontal segments of valid cells, in integers. Each valid
    component has n = 0 at its own anchor, its cell of largest |psi|, so I
    there is exactly theta. With no winding plaquette and no charged hole the
    turn counts sum to zero round every cycle of valid cells (a cycle
    encloses only valid plaquettes and whole holes), so n, and every bit of
    I, is the same along any path: the traversal does not affect the result.

    The result is unique up to 2*pi*n per component. `winding`, `diffs`
    and `holes` are `residues(psi)[0]`, `phase_differences(psi)` and
    `hole_charges(psi)`, when the caller has them. Raises VortexError when a
    plaquette winds or a hole is charged.
    """
    if diffs is None:
        diffs = phase_differences(psi)
    if winding is None:
        winding, _ = residues(psi, diffs)
    if holes is None:
        holes = hole_charges(psi, diffs)
    if winding.any() or holes:
        raise VortexError(_winding_plaquettes(winding), holes)

    if not psi.mask.any():
        raise DecomposeError("no valid cells to unwrap")
    return ScalarField(psi.spec, _run_tree(np.abs(psi.values), psi.mask, diffs))


def decompose(
    psi: ComplexField,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> MadelungFields:
    """Full Madelung decomposition of psi.

    Cells with |psi| < node_threshold * max|psi| are flagged as nodes and
    masked out of every derived field (the log-amplitude diverges there).
    When no plaquette winds and no hole is charged (`residues`, `holes`),
    the phase is unwrapped into `I_unwrapped`; else it stays None.
    """
    if not (0.0 < node_threshold < 1.0):
        raise ValueError("node_threshold must lie in (0, 1)")
    spec = psi.spec
    base = psi.mask
    amp = np.abs(psi.values)
    amax = float(amp[base].max()) if base.any() else 0.0
    if amax == 0.0:
        raise DecomposeError("psi vanishes everywhere")
    node_mask = base & (amp < node_threshold * amax)
    valid_psi = ComplexField(spec, psi.values, base & ~node_mask)
    values = valid_psi.values  # NaN at nodes and non-finite cells

    with np.errstate(all="ignore"):
        S = ScalarField(spec, np.log(amp), valid_psi.mask)
        gx, gy = raw_gradient(values, spec)
        Lx, Ly = gx / values, gy / values
        L2 = raw_laplacian(values, spec) / values
    gradS = VectorField(spec, Lx.real, Ly.real)
    gradI = VectorField(spec, Lx.imag, Ly.imag)
    with np.errstate(over="ignore", invalid="ignore"):  # overflows leave invalid cells
        gS2 = gradS.vx**2 + gradS.vy**2
        gI2 = gradI.vx**2 + gradI.vy**2
        cross = gradS.vx * gradI.vx + gradS.vy * gradI.vy
        lapS = ScalarField(spec, L2.real - gS2 + gI2)
        lapI = ScalarField(spec, L2.imag - 2.0 * cross)
    cross = ScalarField(spec, cross)
    del gx, gy, L2  # freed before the phase differences are formed

    n_valid, n_interior = int(valid_psi.mask.sum()), int(lapS.mask.sum())
    if n_interior < 9:
        cause = ("masking nodes and non-finite cells" if n_valid < 9
                 else f"stencil erosion of {n_valid} valid cells")
        raise DecomposeError(
            f"only {n_interior} valid cells remain after {cause}; "
            "no interior to analyze"
        )
    if not interior_mask(lapS.mask).any():
        # the norms, and so every verdict, are taken two rings in
        raise DecomposeError(
            f"none of the {n_interior} cells with a valid Laplacian lies two rings "
            "in from the grid boundary; no interior to analyze"
        )

    diffs = phase_differences(valid_psi)
    winding, _ = residues(valid_psi, diffs)
    holes = hole_charges(valid_psi, diffs)
    charged = winding.any() or holes
    I_unwrapped = None if charged else unwrap_phase(valid_psi, winding, diffs, holes)

    return MadelungFields(S, gradS, gradI, lapS, lapI, cross, gS2, gI2, node_mask,
                          winding, holes, I_unwrapped)
