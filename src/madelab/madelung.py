"""Decompose a complex field psi = exp(S + iI) into log-amplitude and
phase derivatives without global unwrapping, detect phase vortices, and
optionally produce an unwrapped phase field.

All derivatives of S and I come from the complex log-derivative
grad(psi)/psi and the identity lap(psi)/psi = (gS + i gI)^2 + lapS + i lapI,
never from differentiating ln|psi| or a wrapped phase.
"""

from __future__ import annotations

from collections import deque
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


def unwrap_phase(psi: ComplexField) -> ScalarField:
    """Flood-fill phase unwrapping from the valid cell of largest |psi|.

    The anchor keeps its principal-value phase; the result is unique up to
    a global 2*pi*n. Raises VortexError when any computable plaquette has
    nonzero winding.
    """
    winding, ok = residues(psi)
    if np.any(winding != 0):
        js, iis = np.nonzero(winding != 0)
        raise VortexError((int(j), int(i), int(winding[j, i])) for j, i in zip(js, iis))

    theta = np.angle(psi.values)
    valid = psi.mask
    if not valid.any():
        raise DecomposeError("no valid cells to unwrap")
    amp = np.abs(psi.values)
    amp[~valid] = -1.0
    anchor = np.unravel_index(int(np.argmax(amp)), amp.shape)

    ny, nx = psi.spec.shape
    I = np.full((ny, nx), np.nan)
    done = np.zeros((ny, nx), dtype=bool)
    I[anchor] = theta[anchor]
    done[anchor] = True
    queue = deque([anchor])
    while queue:
        j, i = queue.popleft()
        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nj, ni = j + dj, i + di
            if 0 <= nj < ny and 0 <= ni < nx and valid[nj, ni] and not done[nj, ni]:
                I[nj, ni] = I[j, i] + float(_wrap(theta[nj, ni] - theta[j, i]))
                done[nj, ni] = True
                queue.append((nj, ni))

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
    unwrap: bool = True,
) -> MadelungFields:
    """Full Madelung decomposition of psi.

    Cells with |psi| < node_threshold * max|psi| are flagged as nodes and
    masked out of every derived field (the log-amplitude diverges there).
    When `unwrap` is set and no vortices are present, `I_unwrapped` is
    filled in; vortices leave it None without raising.
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

    winding, ok = residues(ComplexField(spec, psi.values.copy(), valid))

    I_unwrapped = None
    unwrap_error = None
    if unwrap:
        try:
            I_unwrapped = unwrap_phase(ComplexField(spec, psi.values.copy(), valid))
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
