"""Uniform 2D Cartesian grids, masked field containers, and second-order
finite-difference operators (gradient, Laplacian, divergence, dot).

Arrays are stored row-major with shape (ny, nx); element [j, i] sits at
(x0 + i*dx, y0 + j*dy). A mask entry of True marks a valid cell. All
operators erode the mask: an output cell is valid only if every cell its
stencil touches is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Raised when an operation combines fields on different grids."""


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs at least 3 cells per axis")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("grid spacings must be positive")
        far = (self.x0 + (self.nx - 1) * self.dx, self.y0 + (self.ny - 1) * self.dy)
        if not np.isfinite([self.x0, self.y0, self.dx, self.dy, *far]).all():
            raise ValueError("grid origin, spacings and far edge must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x(), self.y(), indexing="xy")


def _valid_mask(spec: GridSpec, mask: np.ndarray | None, *arrays: np.ndarray) -> np.ndarray:
    """`mask` (every cell if None) AND the finiteness of each array: a
    non-finite cell is never valid. All shapes must match the grid."""
    mask = np.ones(spec.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    for a in (*arrays, mask):
        if a.shape != spec.shape:
            raise ValueError(f"array shape {a.shape} does not match grid {spec.shape}")
    for a in arrays:
        mask = mask & np.isfinite(a)
    return mask


@dataclass
class ScalarField:
    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = _valid_mask(self.spec, self.mask, self.values)


@dataclass
class VectorField:
    spec: GridSpec
    vx: np.ndarray
    vy: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=float)
        self.vy = np.asarray(self.vy, dtype=float)
        self.mask = _valid_mask(self.spec, self.mask, self.vx, self.vy)


@dataclass
class ComplexField:
    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        # isfinite of a complex value is isfinite(re) & isfinite(im)
        self.mask = _valid_mask(self.spec, self.mask, self.values)


# ---------------------------------------------------------------------------
# Stencils. Helpers work on raw (possibly complex) arrays so that the
# Madelung module can differentiate psi directly; the public field-level
# operators wrap them.
# ---------------------------------------------------------------------------

def deriv1(values: np.ndarray, d: float, axis: int) -> np.ndarray:
    """Second-order first derivative along `axis` (0 = y, 1 = x)."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * d)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * d)
    return np.moveaxis(out, 0, axis)


def deriv2(values: np.ndarray, d: float, axis: int) -> np.ndarray:
    """Second-order second derivative along `axis`."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    inv = 1.0 / (d * d)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) * inv
    if len(f) < 4:
        # no room for the 4-point one-sided stencil; _erode masks these
        out[0] = out[-1] = np.nan
    else:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) * inv
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) * inv
    return np.moveaxis(out, 0, axis)


def _erode(mask: np.ndarray, axis: int, reach: int) -> np.ndarray:
    """Mask for a stencil output along `axis`: the cell and every input it
    reads are valid. A one-sided boundary row reads `reach` cells (3 for
    deriv1, 4 for deriv2), so it is invalid on an axis shorter than that."""
    m = np.moveaxis(mask, axis, 0)
    out = np.empty_like(m)
    out[1:-1] = m[:-2] & m[1:-1] & m[2:]
    if len(m) < reach:
        out[0] = out[-1] = False
    else:
        out[0] = np.logical_and.reduce(m[:reach])
        out[-1] = np.logical_and.reduce(m[-reach:])
    return np.moveaxis(out, 0, axis)


def raw_gradient(values: np.ndarray, mask: np.ndarray, spec: GridSpec):
    """(d/dx, d/dy, eroded mask) on a raw array; works for complex input."""
    gx = deriv1(values, spec.dx, 1)
    gy = deriv1(values, spec.dy, 0)
    m = _erode(mask, 1, 3) & _erode(mask, 0, 3)
    return gx, gy, m


def raw_laplacian(values: np.ndarray, mask: np.ndarray, spec: GridSpec):
    lap = deriv2(values, spec.dx, 1) + deriv2(values, spec.dy, 0)
    m = _erode(mask, 1, 4) & _erode(mask, 0, 4)
    return lap, m


def gradient(f: ScalarField) -> VectorField:
    gx, gy, m = raw_gradient(f.values, f.mask, f.spec)
    return VectorField(f.spec, gx, gy, m)


def laplacian(f: ScalarField) -> ScalarField:
    lap, m = raw_laplacian(f.values, f.mask, f.spec)
    return ScalarField(f.spec, lap, m)


def divergence(w: VectorField) -> ScalarField:
    spec = w.spec
    div = deriv1(w.vx, spec.dx, 1) + deriv1(w.vy, spec.dy, 0)
    m = _erode(w.mask, 1, 3) & _erode(w.mask, 0, 3)
    return ScalarField(spec, div, m)


def dot(a: VectorField, b: VectorField) -> ScalarField:
    if a.spec != b.spec:
        raise GridMismatchError("dot() needs both fields on one grid")
    return ScalarField(a.spec, a.vx * b.vx + a.vy * b.vy, a.mask & b.mask)


def interior_mask(mask: np.ndarray) -> np.ndarray:
    """Valid cells at least two rings in from the grid boundary.

    Two rings, not one: stacked stencils (e.g. the divergence of a
    computed current) are fully central only there; cells closer to the
    edge mix one-sided and central errors and lose an order.
    """
    m = np.zeros_like(mask)
    m[2:-2, 2:-2] = mask[2:-2, 2:-2]
    return m


def max_norm(values: np.ndarray, mask: np.ndarray) -> float | None:
    """Max |value| over interior valid cells; None if the region is empty."""
    m = interior_mask(mask)
    if not m.any():
        return None
    return float(np.max(np.abs(values[m])))


def rms_norm(values: np.ndarray, mask: np.ndarray) -> float | None:
    m = interior_mask(mask)
    if not m.any():
        return None
    v = values[m]
    return float(np.sqrt(np.mean(v * v)))
