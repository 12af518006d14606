"""Closed-form states sampled at cell centers: the catalog behind
`--builtin`. Needs only numpy.
"""

from __future__ import annotations

import numpy as np

from .currents import PhysicalParams
from .grid import ComplexField, GridSpec

BUILTIN_NAMES = ("plane_wave", "ho_ground", "ho_vortex", "box_mode", "exp_z", "gauss_real")


@np.errstate(all="ignore")  # like exprlang.eval_field: non-finite samples are masked
def builtin_state(
    name: str,
    params: dict,
    spec: GridSpec,
    p: PhysicalParams,
) -> tuple[ComplexField, float | None]:
    """Sample a catalog state at cell centers; returns (psi, exact energy).

    Energy is None for diagnostics fixtures that are not eigenstates of a
    cataloged potential (exp_z, gauss_real). Oscillator states use omega=1;
    box modes live on the unit box [0,1]^2.
    """
    X, Y = spec.meshgrid()
    # numpy floats overflow to inf (silently, as errors are ignored here)
    # where Python floats would raise OverflowError
    hbar, mass = np.float64(p.hbar), np.float64(p.mass)
    energy = None
    if name == "plane_wave":
        k1 = np.float64(params.get("k1", 1.0))
        k2 = np.float64(params.get("k2", 0.0))
        if not np.isfinite([k1, k2]).all():
            raise ValueError("plane_wave needs finite k1, k2")
        psi = np.exp(1j * (k1 * X + k2 * Y))
        energy = hbar**2 * (k1**2 + k2**2) / (2.0 * mass)
    elif name == "ho_ground":
        a = mass / hbar  # omega = 1
        psi = np.exp(-0.5 * a * (X**2 + Y**2)).astype(complex)
        energy = hbar * 1.0
    elif name == "ho_vortex":
        ell = int(params.get("l", 1))
        if ell < 1:
            raise ValueError("ho_vortex needs l >= 1")
        a = mass / hbar
        z = np.sqrt(a) * (X + 1j * Y)
        psi = z**ell * np.exp(-0.5 * a * (X**2 + Y**2))
        energy = hbar * (ell + 1.0)
    elif name == "box_mode":
        n1 = int(params.get("n1", 1))
        n2 = int(params.get("n2", 1))
        if n1 < 1 or n2 < 1:
            raise ValueError("box_mode needs n1, n2 >= 1")
        psi = (np.sin(n1 * np.pi * X) * np.sin(n2 * np.pi * Y)).astype(complex)
        energy = hbar**2 * np.pi**2 * (n1**2 + n2**2) / (2.0 * mass)
    elif name == "exp_z":
        psi = np.exp(X + 1j * Y)
    elif name == "gauss_real":
        sigma = float(params.get("sigma", 1.0))
        if not 0 < sigma < np.inf:
            raise ValueError("gauss_real needs a finite sigma > 0")
        psi = np.exp(-0.5 * (X**2 + Y**2) / sigma**2).astype(complex)
    else:
        raise ValueError(f"unknown builtin state {name!r}; choose from {BUILTIN_NAMES}")
    if energy is None:
        return ComplexField(spec, psi), None
    if not np.isfinite(energy):
        raise ValueError(f"the {name} energy overflows: it must be finite")
    return ComplexField(spec, psi), float(energy)
