"""Decompose a complex field psi = exp(S + iI) into log-amplitude and
phase derivatives without global unwrapping, detect phase vortices, and
optionally produce an unwrapped phase field.

All derivatives of S and I come from the complex log-derivative
grad(psi)/psi and the identity lap(psi)/psi = (gS + i gI)^2 + lapS + i lapI,
never from differentiating ln|psi| or a wrapped phase.

The unwrapped phase integrates wrapped differences along a breadth-first
spanning tree (Itoh, Appl. Opt. 21 (1982) 2470) on the grid padded with one
ring of invalid cells. The search advances one whole level at a time with
array operations, and it builds the same tree, and so the same floats, as a
cell-by-cell FIFO search would. `decompose` unwraps only when no plaquette
winds, and keeps any tears (vortex cores hidden in masked cells) as data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    residues: np.ndarray           # (ny-1, nx-1) winding per plaquette, 0 if uncomputable
    I_unwrapped: ScalarField | None = None
    tears: list[tuple[int, int, int]] = field(default_factory=list)  # (j, i, winding)

    @property
    def spec(self):
        return self.S.spec

    def vortex_plaquettes(self) -> list[tuple[int, int, int]]:
        js, iis = np.nonzero(self.residues)
        return [(int(j), int(i), int(self.residues[j, i])) for j, i in zip(js, iis)]


def _wrap(d: np.ndarray) -> np.ndarray:
    """Wrap phase differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - d, _TWO_PI)


def residues(psi: ComplexField) -> tuple[np.ndarray, np.ndarray]:
    """Integer winding number per 2x2 plaquette of valid cells.

    Returns (residues, computable_mask); plaquettes touching masked cells
    are reported as indeterminate (mask False) with winding 0.
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
    ok = m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
    winding = np.rint(np.where(ok, s, 0.0) / _TWO_PI).astype(int)
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
    search runs on flat indices of the grid padded with one ring of invalid
    cells (w = nx + 2 per row), so every neighbour of a valid cell is a real
    index, no +-1 step joins two rows and no step needs a border check.
    It goes level by level: the frontier is kept in queue order, each
    level's candidates are its cells' four neighbours in the order (+y, -y,
    +x, -x) = (+w, -w, +1, -1), and a cell reached by several frontier cells
    takes the first. That is exactly the tree, and so the floats, of a
    cell-by-cell FIFO search with the same neighbour order.

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

    valid = psi.mask
    if not valid.any():
        raise DecomposeError("no valid cells to unwrap")
    amp = np.abs(psi.values)
    amp[~valid] = -1.0
    w = psi.spec.nx + 2
    j, i = np.unravel_index(np.argmax(amp), amp.shape)
    anchor = (j + 1) * w + i + 1

    flat_valid = np.pad(valid, 1).ravel()
    flat_theta = np.pad(np.angle(psi.values), 1).ravel()
    flat_I = np.full(flat_valid.size, np.nan)
    flat_done = np.zeros(flat_valid.size, dtype=bool)
    flat_I[anchor] = flat_theta[anchor]
    flat_done[anchor] = True
    steps = np.array([w, -w, 1, -1])
    front = np.array([anchor])
    while front.size:
        parent = np.repeat(front, 4)
        child = (front[:, None] + steps).ravel()
        keep = flat_valid[child] & ~flat_done[child]
        parent, child = parent[keep], child[keep]
        _, first = np.unique(child, return_index=True)
        first.sort()
        parent, child = parent[first], child[first]
        flat_I[child] = flat_I[parent] + _wrap(flat_theta[child] - flat_theta[parent])
        flat_done[child] = True
        front = child

    # A vortex hiding inside a masked hole leaves every computable plaquette
    # at zero winding but tears I by 2*pi*n across some off-tree edge: check
    # each cell against its +y, then +x neighbour (a real cell, by the ring).
    # Grid-shaped temporaries, not padded ones, reuse the heap decompose frees.
    I, done, theta = (a.reshape(-1, w) for a in (flat_I, flat_done, flat_theta))
    cell = (slice(1, -1), slice(1, -1))
    tears = []
    for nb in ((slice(2, None), slice(1, -1)), (slice(1, -1), slice(2, None))):
        jump = I[nb] - I[cell] - _wrap(theta[nb] - theta[cell])
        for j, i in zip(*np.nonzero(done[cell] & done[nb] & (np.abs(jump) > np.pi))):
            tears.append((int(j), int(i), int(np.rint(jump[j, i] / _TWO_PI))))
    if tears:
        raise VortexError(tears)
    return ScalarField(psi.spec, I[cell].copy())  # frees the padded buffers


def decompose(
    psi: ComplexField,
    node_threshold: float = DEFAULT_NODE_THRESHOLD,
) -> MadelungFields:
    """Full Madelung decomposition of psi.

    Cells with |psi| < node_threshold * max|psi| are flagged as nodes and
    masked out of every derived field (the log-amplitude diverges there).
    When no plaquette winds, the phase is unwrapped into `I_unwrapped`,
    unless it tears around a core hidden in masked cells; the tears then go
    to `tears`. Vortices leave `I_unwrapped` None without raising.
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
        S = ScalarField(spec, np.log(np.abs(values)))
        gx, gy = raw_gradient(values, spec)
        Lx, Ly = gx / values, gy / values
        L2 = raw_laplacian(values, spec) / values
    gradS = VectorField(spec, Lx.real, Ly.real)
    gradI = VectorField(spec, Lx.imag, Ly.imag)
    gS2 = gradS.vx**2 + gradS.vy**2
    gI2 = gradI.vx**2 + gradI.vy**2
    cross = gradS.vx * gradI.vx + gradS.vy * gradI.vy
    lapS = ScalarField(spec, L2.real - gS2 + gI2)
    lapI = ScalarField(spec, L2.imag - 2.0 * cross)
    cross = ScalarField(spec, cross)

    n_valid, n_interior = int(valid_psi.mask.sum()), int(lapS.mask.sum())
    if n_interior < 9:
        cause = ("masking nodes and non-finite cells" if n_valid < 9
                 else f"stencil erosion of {n_valid} valid cells")
        raise DecomposeError(
            f"only {n_interior} valid cells remain after {cause}; "
            "no interior to analyze"
        )

    winding, _ = residues(valid_psi)
    I_unwrapped, tears = None, []
    if not winding.any():
        try:
            I_unwrapped = unwrap_phase(valid_psi, winding)
        except VortexError as err:
            tears = err.plaquettes

    return MadelungFields(S, gradS, gradI, lapS, lapI, cross, node_mask, winding,
                          I_unwrapped, tears)
