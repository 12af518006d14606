"""Uniform 2D Cartesian grids, masked field containers, second-order
finite-difference stencils, and interior norms.

Arrays are stored row-major with shape (ny, nx); element [j, i] sits at
(x0 + i*dx, y0 + j*dy). A cell is valid when its value is finite (for a
vector field, both components); each field's `mask` is derived from that
when it is built. A `mask=` argument sets the cells it excludes to NaN, and
every invalid cell holds NaN, in every component of a vector or complex
field. The stencils need no masks: NaN propagates, so an output cell is
valid only if every cell its stencil touches is valid.
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
        # the stencils divide by d^2, which must not underflow or overflow
        if not all(d > 0 and d * d > 0 and 0 < 1 / (d * d) < np.inf for d in (self.dx, self.dy)):
            raise ValueError("grid spacings d must be positive with d^2 and 1/d^2 finite")
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


def _validate(spec: GridSpec, mask: np.ndarray | None, arrays: list, nan) -> tuple:
    """(mask, arrays): a cell is valid where every array is finite and
    `mask`, if given, is True. Each invalid cell of each array is set to
    `nan` (in a copy). All shapes must match the grid."""
    for a in arrays if mask is None else (*arrays, np.asarray(mask)):
        if a.shape != spec.shape:
            raise ValueError(f"array shape {a.shape} does not match grid {spec.shape}")
    valid = np.isfinite(arrays[0])
    for a in arrays[1:]:
        valid &= np.isfinite(a)
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    if not valid.all():
        arrays = [np.where(valid, a, nan) for a in arrays]
    return valid, arrays


@dataclass
class ScalarField:
    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        self.mask, (self.values,) = _validate(self.spec, self.mask, [values], np.nan)


@dataclass
class VectorField:
    spec: GridSpec
    vx: np.ndarray
    vy: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        # one NaN set for both components: each stands alone as a ScalarField
        vx, vy = np.asarray(self.vx, dtype=float), np.asarray(self.vy, dtype=float)
        self.mask, (self.vx, self.vy) = _validate(self.spec, self.mask, [vx, vy], np.nan)


@dataclass
class ComplexField:
    spec: GridSpec
    values: np.ndarray
    mask: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        # isfinite of a complex value is isfinite(re) & isfinite(im)
        values = np.asarray(self.values, dtype=complex)
        self.mask, (self.values,) = _validate(
            self.spec, self.mask, [values], complex(np.nan, np.nan))


# ---------------------------------------------------------------------------
# Stencils. They work on raw (possibly complex) arrays so that the Madelung
# module can differentiate psi directly; `divergence` alone takes a field.
# ---------------------------------------------------------------------------

def deriv1(values: np.ndarray, d: float, axis: int) -> np.ndarray:
    """Second-order first derivative along `axis` (0 = y, 1 = x). The
    central stencil skips its own cell, so a non-finite input cell is
    copied to its output."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    mid = out[1:-1]  # (f[2:] - f[:-2]) / (2 d), formed in place
    np.subtract(f[2:], f[:-2], out=mid)
    np.divide(mid, 2.0 * d, out=mid)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * d)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * d)
    np.copyto(out, f, where=~np.isfinite(f))
    return np.moveaxis(out, 0, axis)


def deriv2(values: np.ndarray, d: float, axis: int) -> np.ndarray:
    """Second-order second derivative along `axis`."""
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    inv = 1.0 / (d * d)
    mid = out[1:-1]  # (f[2:] - 2 f[1:-1] + f[:-2]) / d^2, formed in place
    np.multiply(2.0, f[1:-1], out=mid)
    np.subtract(f[2:], mid, out=mid)
    np.add(mid, f[:-2], out=mid)
    np.multiply(mid, inv, out=mid)
    if len(f) < 4:
        # no room for the 4-point one-sided stencil (NaN in every part)
        out[0] = out[-1] = f[0] * np.nan
    else:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) * inv
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) * inv
    return np.moveaxis(out, 0, axis)


def raw_gradient(values: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy) on a raw array, non-finite where any cell read is;
    works for complex input."""
    return deriv1(values, spec.dx, 1), deriv1(values, spec.dy, 0)


def raw_laplacian(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    lap = deriv2(values, spec.dx, 1)
    lap += deriv2(values, spec.dy, 0)
    return lap


def divergence(w: VectorField) -> ScalarField:
    with np.errstate(over="ignore"):  # the caller refuses an infinite norm
        div = deriv1(w.vx, w.spec.dx, 1)
        div += deriv1(w.vy, w.spec.dy, 0)
    return ScalarField(w.spec, div)


def interior_mask(mask: np.ndarray) -> np.ndarray:
    """Valid cells at least two rings in from the grid boundary.

    Two rings, not one: stacked stencils (e.g. the divergence of a
    computed current) are fully central only there; cells closer to the
    edge mix one-sided and central errors and lose an order.
    """
    m = np.zeros_like(mask)
    m[2:-2, 2:-2] = mask[2:-2, 2:-2]
    return m


def interior_norms(values: np.ndarray, mask: np.ndarray) -> tuple[float, float] | None:
    """(max |value|, rms) over interior valid cells, both from one gather;
    None if the region is empty. The rms is inf where the squares overflow."""
    v = values[interior_mask(mask)]
    if not v.size:
        return None
    with np.errstate(over="ignore"):  # the callers refuse an infinite rms
        return float(np.max(np.abs(v))), float(np.sqrt(np.mean(v * v)))


def max_norm(values: np.ndarray, mask: np.ndarray) -> float | None:
    """Max |value| over interior valid cells; None if the region is empty."""
    norms = interior_norms(values, mask)
    return None if norms is None else norms[0]
