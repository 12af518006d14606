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

from .grid import GridMismatchError, ScalarField, VectorField, divergence
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
    m: MadelungFields, p: PhysicalParams, rho: np.ndarray | None = None
) -> tuple[VectorField, ScalarField, ScalarField]:
    """J = (hbar/m) e^{2S} gradI, its stencil divergence, and defectC.
    `rho` is e^{2S} when the caller already has it."""
    c = p.hbar / p.mass
    with np.errstate(over="ignore", invalid="ignore"):  # overflows leave invalid cells
        if rho is None:
            rho = np.exp(2.0 * m.S.values)
        c_rho = c * rho
        J = VectorField(m.spec, c_rho * m.gradI.vx, c_rho * m.gradI.vy)
    divJ = divergence(J)
    defectC = ScalarField(m.spec, 2.0 * m.cross.values + m.lapI.values)
    return J, divJ, defectC


def analytic_current(
    m: MadelungFields, p: PhysicalParams
) -> tuple[VectorField | None, ScalarField | None, ScalarField]:
    """J~ = (hbar/m) e^{2I} gradS, its divergence, and defectA.

    defectA needs no unwrapping and is always returned. When the phase
    could not be unwrapped (vortices), J~ and its divergence come back as
    None; the caller decides whether that is an error.
    """
    defectA = ScalarField(m.spec, 2.0 * m.cross.values + m.lapS.values)
    if m.I_unwrapped is None:
        return None, None, defectA
    c = p.hbar / p.mass
    # e^{2I} overflows for large I; inf times a zero gradS is NaN, and
    # either way the cell drops out of J~ as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        c_rho_t = c * np.exp(2.0 * m.I_unwrapped.values)
        Jt = VectorField(m.spec, c_rho_t * m.gradS.vx, c_rho_t * m.gradS.vy)
    return Jt, divergence(Jt), defectA


def quantum_potential(m: MadelungFields, p: PhysicalParams) -> ScalarField:
    """U = -(hbar^2 / 2m) (|gradS|^2 + lapS)."""
    c = p.hbar * p.hbar / (2.0 * p.mass)
    return ScalarField(m.spec, -c * (m.gS2 + m.lapS.values))


def qhj_residual(m: MadelungFields, V: ScalarField, E: float, p: PhysicalParams) -> ScalarField:
    """Pointwise violation of (hbar^2/2m)|gradI|^2 + V + U - E = 0."""
    return _qhj_residual(m, V, E, p, quantum_potential(m, p))


def _qhj_residual(m: MadelungFields, V: ScalarField, E: float, p: PhysicalParams,
                  U: ScalarField) -> ScalarField:
    """`qhj_residual` with the quantum potential U of m already formed."""
    if V.spec != m.spec:
        raise GridMismatchError("potential grid does not match the state grid")
    c = p.hbar * p.hbar / (2.0 * p.mass)
    return ScalarField(m.spec, c * m.gI2 + V.values + U.values - E)


def de_broglie(m: MadelungFields, p: PhysicalParams) -> ScalarField:
    """lambda = hbar/(m|v|) = 1/|gradI|; near-zero speeds are masked."""
    speed = np.hypot(m.gradI.vx, m.gradI.vy)
    lam = np.divide(1.0, speed, out=np.full(speed.shape, np.nan),
                    where=speed >= DE_BROGLIE_SPEED_FLOOR)
    return ScalarField(m.spec, lam)


def compute_currents(
    m: MadelungFields,
    p: PhysicalParams,
    V: ScalarField | None = None,
    E: float | None = None,
) -> CurrentFields:
    """Assemble every current diagnostic for one state."""
    with np.errstate(over="ignore"):  # overflows leave invalid cells
        rho = ScalarField(m.spec, np.exp(2.0 * m.S.values))
    J, divJ, defectC = probability_current(m, p, rho.values)
    Jt, divJt, defectA = analytic_current(m, p)
    U = quantum_potential(m, p)
    lam = de_broglie(m, p)
    qhj = None if V is None or E is None else _qhj_residual(m, V, E, p, U)
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
