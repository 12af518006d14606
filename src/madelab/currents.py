"""Physical fields of the stationary quantum fluid: density, probability
current J and its divergence, the swapped analytic current
J~ = (hbar/m) e^{2I} grad S, the two defect brackets, the quantum
potential, the stationary Hamilton-Jacobi residual, and the local de
Broglie wavelength.

The defect scalars carry the mathematical content independently of the
exponential prefactors:

    defectC = 2 gradS.gradI + lapI     (continuity bracket; div J = (hbar/m) e^{2S} defectC)
    defectA = 2 gradI.gradS + lapS     (analytic bracket;  div J~ = (hbar/m) e^{2I} defectA)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridMismatchError, ScalarField, VectorField, divergence, dot
from .madelung import MadelungFields

DE_BROGLIE_SPEED_FLOOR = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")


@dataclass
class CurrentFields:
    rho: ScalarField
    J: VectorField
    divJ: ScalarField
    defectC: ScalarField
    defectA: ScalarField
    U: ScalarField
    deBroglie: ScalarField
    params: PhysicalParams         # the hbar and mass the currents carry
    Jtilde: VectorField | None = None
    divJtilde: ScalarField | None = None
    qhjResidual: ScalarField | None = None


def probability_current(
    m: MadelungFields, p: PhysicalParams
) -> tuple[VectorField, ScalarField, ScalarField]:
    """J = (hbar/m) e^{2S} gradI, its stencil divergence, and defectC."""
    c = p.hbar / p.mass
    rho = np.exp(2.0 * m.S.values)
    mask = m.gradI.mask & m.S.mask
    J = VectorField(m.spec, c * rho * m.gradI.vx, c * rho * m.gradI.vy, mask)
    divJ = divergence(J)
    defectC = ScalarField(
        m.spec, 2.0 * m.cross.values + m.lapI.values, m.cross.mask & m.lapI.mask
    )
    return J, divJ, defectC


def analytic_current(
    m: MadelungFields, p: PhysicalParams
) -> tuple[VectorField | None, ScalarField | None, ScalarField]:
    """J~ = (hbar/m) e^{2I} gradS, its divergence, and defectA.

    defectA needs no unwrapping and is always returned. When the phase
    could not be unwrapped (vortices), J~ and its divergence come back as
    None; the caller decides whether that is an error.
    """
    defectA = ScalarField(
        m.spec, 2.0 * m.cross.values + m.lapS.values, m.cross.mask & m.lapS.mask
    )
    if m.I_unwrapped is None:
        return None, None, defectA
    c = p.hbar / p.mass
    with np.errstate(over="ignore"):
        rho_t = np.exp(2.0 * m.I_unwrapped.values)
    mask = m.gradS.mask & m.I_unwrapped.mask
    Jt = VectorField(m.spec, c * rho_t * m.gradS.vx, c * rho_t * m.gradS.vy, mask)
    return Jt, divergence(Jt), defectA


def quantum_potential(m: MadelungFields, p: PhysicalParams) -> ScalarField:
    """U = -(hbar^2 / 2m) (|gradS|^2 + lapS)."""
    gS2 = dot(m.gradS, m.gradS)
    c = p.hbar * p.hbar / (2.0 * p.mass)
    return ScalarField(m.spec, -c * (gS2.values + m.lapS.values), gS2.mask & m.lapS.mask)


def qhj_residual(
    m: MadelungFields, V: ScalarField, E: float, p: PhysicalParams
) -> ScalarField:
    """Pointwise violation of (hbar^2/2m)|gradI|^2 + V + U - E = 0."""
    if V.spec != m.spec:
        raise GridMismatchError("potential grid does not match the state grid")
    U = quantum_potential(m, p)
    gI2 = dot(m.gradI, m.gradI)
    c = p.hbar * p.hbar / (2.0 * p.mass)
    res = c * gI2.values + V.values + U.values - E
    return ScalarField(m.spec, res, gI2.mask & U.mask & V.mask)


def de_broglie(m: MadelungFields, p: PhysicalParams) -> ScalarField:
    """lambda = hbar/(m|v|) = 1/|gradI|; near-zero speeds are masked."""
    speed = np.hypot(m.gradI.vx, m.gradI.vy)
    mask = m.gradI.mask & (speed >= DE_BROGLIE_SPEED_FLOOR)
    lam = np.divide(1.0, speed, out=np.full(speed.shape, np.nan), where=mask)
    return ScalarField(m.spec, lam, mask)


def compute_currents(
    m: MadelungFields,
    p: PhysicalParams,
    V: ScalarField | None = None,
    E: float | None = None,
) -> CurrentFields:
    """Assemble every current diagnostic for one state."""
    rho = ScalarField(m.spec, np.exp(2.0 * m.S.values), m.S.mask.copy())
    J, divJ, defectC = probability_current(m, p)
    Jt, divJt, defectA = analytic_current(m, p)
    U = quantum_potential(m, p)
    lam = de_broglie(m, p)
    qhj = None
    if V is not None and E is not None:
        qhj = qhj_residual(m, V, E, p)
    return CurrentFields(
        rho=rho,
        J=J,
        divJ=divJ,
        defectC=defectC,
        defectA=defectA,
        U=U,
        deBroglie=lam,
        params=p,
        Jtilde=Jt,
        divJtilde=divJt,
        qhjResidual=qhj,
    )
