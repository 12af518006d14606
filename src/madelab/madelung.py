"""Decompose a complex field psi = exp(S + iI) into log-amplitude and
phase derivatives without global unwrapping, detect phase vortices, and
optionally produce an unwrapped phase field.

All derivatives of S and I come from the complex log-derivative
grad(psi)/psi and the identity lap(psi)/psi = (gS + i gI)^2 + lapS + i lapI,
never from differentiating ln|psi| or a wrapped phase.

The unwrapped phase integrates wrapped differences along a breadth-first
spanning tree (Itoh, Appl. Opt. 21 (1982) 2470). The search advances one
whole level at a time with array operations, and it builds the same tree,
and so the same floats, as a cell-by-cell FIFO search would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    ComplexField,
    ScalarField,
    VectorField,
    raw_gradient,
    raw_laplacian,
)

DEFAULT_NODE_THRESHOLD = 1e-8

_TWO_PI = 2.0 * np.pi


class DecomposeError(ValueError):
    """Raised when too few valid cells remain to analyze."""


class VortexError(ValueError):
    """Nonzero phase winding obstructs global unwrapping.

    `plaquettes` lists (j, i, winding) for each offending plaquette, where
    (j, i) indexes the plaquette's lower-left cell.
    """

    def __init__(self, plaquettes):
        self.plaquettes = list(plaquettes)
        super().__init__(
            f"phase has {len(self.plaquettes)} plaquette(s) with nonzero winding; "
            "I is not globally definable"
        )


@dataclass
class MadelungFields:
    S: ScalarField
    gradS: VectorField
    gradI: VectorField
    lapS: ScalarField
    lapI: ScalarField
    cross: ScalarField             # gradS . gradI, the cross term of lap(psi)/psi
    node_mask: np.ndarray          # True = too close to a node of psi
    residues: np.ndarray           # (ny-1, nx-1) integer winding per plaquette
    residue_mask: np.ndarray       # True = plaquette winding is computable
    I_unwrapped: ScalarField | None = None
    unwrap_error: VortexError | None = None

    @property
    def spec(self):
        return self.S.spec

    def vortex_plaquettes(self) -> list[tuple[int, int, int]]:
        js, iis = np.nonzero(self.residue_mask & (self.residues != 0))
        return [(int(j), int(i), int(self.residues[j, i])) for j, i in zip(js, iis)]


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap phase differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - d, _TWO_PI)


def residues(psi: ComplexField) -> tuple[np.ndarray, np.ndarray]:
    """Integer winding number per 2x2 plaquette of valid cells.

    Returns (residues, computable_mask); plaquettes touching masked cells
    are reported as indeterminate (mask False).
    """
    theta = np.angle(psi.values)
    m = psi.mask
    # counterclockwise: (j,i) -> (j,i+1) -> (j+1,i+1) -> (j+1,i) -> (j,i)
    s = (
        _wrap(theta[:-1, 1:] - theta[:-1, :-1])
        + _wrap(theta[1:, 1:] - theta[:-1, 1:])
        + _wrap(theta[1:, :-1] - theta[1:, 1:])
        + _wrap(theta[:-1, :-1] - theta[1:, :-1])
    )
    winding = np.rint(s / _TWO_PI).astype(int)
    ok = m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
    winding[~ok] = 0
    return winding, ok


def loop_winding(psi: ComplexField, j0: int, j1: int, i0: int, i1: int) -> int:
    """Total phase winding around the rectangle of cells [j0..j1] x [i0..i1].

    Counterclockwise along the rectangle's boundary cells; every boundary
    cell must be valid. By residue additivity this equals the sum of the
    enclosed plaquette residues.
    """
    theta = np.angle(psi.values)
    path = (
        [(j0, i) for i in range(i0, i1 + 1)]
        + [(j, i1) for j in range(j0 + 1, j1 + 1)]
        + [(j1, i) for i in range(i1 - 1, i0 - 1, -1)]
        + [(j, i0) for j in range(j1 - 1, j0 - 1, -1)]
    )
    if not all(psi.mask[j, i] for j, i in path):
        raise ValueError("loop passes through masked cells")
    total = 0.0
    for (ja, ia), (jb, ib) in zip(path, path[1:] + path[:1]):
        total += float(_wrap(theta[jb, ib] - theta[ja, ia]))
    return int(np.rint(total / _TWO_PI))


def unwrap_phase(psi: ComplexField, winding: np.ndarray | None = None) -> ScalarField:
    """Unwrap the phase of psi from the valid cell of largest |psi|.

    Itoh's method: each cell's I is its BFS parent's I plus the wrapped
    phase difference to it, I[c] = I[p] + wrap(theta[c] - theta[p]). The
    breadth-first search runs level by level on flat indices: the frontier
    is kept in queue order, each level's candidates are its cells' four
    neighbours in the order (+y, -y, +x, -x), and a cell reached by several
    frontier cells takes the first. That is exactly the tree, and so the
    floats, of a cell-by-cell FIFO search with the same neighbour order.

    The anchor keeps its principal-value phase; the result is unique up to
    a global 2*pi*n on the anchor's component, and cells of other
    components stay unset (mask False). `winding` is `residues(psi)[0]`
    when the caller already has it. Raises VortexError when any computable
    plaquette has nonzero winding, or when I tears by 2*pi*n across an
    edge off the tree.
    """
    if winding is None:
        winding, _ = residues(psi)
    if np.any(winding != 0):
        js, iis = np.nonzero(winding != 0)
        raise VortexError((int(j), int(i), int(winding[j, i])) for j, i in zip(js, iis))

    theta = np.angle(psi.values)
    valid = psi.mask
    if not valid.any():
        raise DecomposeError("no valid cells to unwrap")
    amp = np.abs(psi.values)
    amp[~valid] = -1.0
    anchor = int(np.argmax(amp))

    ny, nx = psi.spec.shape
    flat_theta = theta.ravel()
    flat_valid = valid.ravel()
    flat_I = np.full(ny * nx, np.nan)
    flat_done = np.zeros(ny * nx, dtype=bool)
    flat_I[anchor] = flat_theta[anchor]
    flat_done[anchor] = True
    steps = np.array([nx, -nx, 1, -1])
    front = np.array([anchor])
    while front.size:
        j, i = np.divmod(front, nx)
        inside = np.stack([j < ny - 1, j > 0, i < nx - 1, i > 0], axis=1).ravel()
        parent = np.repeat(front, 4)[inside]
        child = (front[:, None] + steps).ravel()[inside]
        keep = flat_valid[child] & ~flat_done[child]
        parent, child = parent[keep], child[keep]
        _, first = np.unique(child, return_index=True)
        first.sort()
        parent, child = parent[first], child[first]
        flat_I[child] = flat_I[parent] + _wrap(flat_theta[child] - flat_theta[parent])
        flat_done[child] = True
        front = child
    I = flat_I.reshape(ny, nx)
    done = flat_done.reshape(ny, nx)

    # A vortex hiding inside a masked hole leaves every computable plaquette
    # at zero winding but tears I by 2*pi*n across some off-tree edge.
    # Any such inconsistency means I is not globally definable.
    tears = []
    for axis in (0, 1):
        a = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
        b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        both = done[a] & done[b]
        jump = I[b] - I[a] - _wrap(theta[b] - theta[a])
        bad = both & (np.abs(jump) > np.pi)
        for j, i in zip(*np.nonzero(bad)):
            w = int(np.rint(jump[j, i] / _TWO_PI))
            tears.append((int(j), int(i), w))
    if tears:
        raise VortexError(tears)
    return ScalarField(psi.spec, I, done)


def decompose(
    psi: ComplexField,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> MadelungFields:
    """Full Madelung decomposition of psi.

    Cells with |psi| < node_threshold * max|psi| are flagged as nodes and
    masked out of every derived field (the log-amplitude diverges there).
    When no vortices are present, `I_unwrapped` is filled in; vortices
    leave it None without raising.
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
    valid = base & ~node_mask

    with np.errstate(all="ignore"):
        S_vals = np.where(valid, np.log(np.where(valid, amp, 1.0)), np.nan)
    S = ScalarField(spec, S_vals, valid)

    gx, gy, gmask = raw_gradient(psi.values, valid, spec)
    with np.errstate(all="ignore"):
        Lx = np.where(gmask, gx / psi.values, np.nan)
        Ly = np.where(gmask, gy / psi.values, np.nan)
    gradS = VectorField(spec, Lx.real, Ly.real, gmask.copy())
    gradI = VectorField(spec, Lx.imag, Ly.imag, gmask.copy())

    lap, lmask = raw_laplacian(psi.values, valid, spec)
    lmask = lmask & gradS.mask
    with np.errstate(all="ignore"):
        L2 = np.where(lmask, lap / psi.values, np.nan)
    gS2 = gradS.vx**2 + gradS.vy**2
    gI2 = gradI.vx**2 + gradI.vy**2
    cross = gradS.vx * gradI.vx + gradS.vy * gradI.vy
    lapS = ScalarField(spec, L2.real - gS2 + gI2, lmask.copy())
    lapI = ScalarField(spec, L2.imag - 2.0 * cross, lmask.copy())
    cross = ScalarField(spec, cross, gradS.mask & gradI.mask)

    if int(lmask.sum()) < 9:
        raise DecomposeError(
            f"only {int(lmask.sum())} valid cells remain after node masking; "
            "no interior to analyze"
        )

    field = ComplexField(spec, psi.values, valid)
    winding, ok = residues(field)

    I_unwrapped = None
    unwrap_error = None
    try:
        I_unwrapped = unwrap_phase(field, winding)
    except VortexError as err:
        unwrap_error = err

    return MadelungFields(
        S=S,
        gradS=gradS,
        gradI=gradI,
        lapS=lapS,
        lapI=lapI,
        cross=cross,
        node_mask=node_mask,
        residues=winding,
        residue_mask=ok,
        I_unwrapped=I_unwrapped,
        unwrap_error=unwrap_error,
    )
