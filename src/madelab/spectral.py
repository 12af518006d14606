"""Discrete stationary Schrodinger operator on the grid, lowest-eigenpair
solver, degenerate-pair combination, and a catalog of closed-form states.

The operator is H = -(hbar^2/2m) Lap5 + V with Dirichlet boundary (psi = 0
outside the grid). Its 5-point Laplacian matches the grid module's interior
stencil, so the continuity-defect diagnostics vanish to roundoff on
converged eigenstates. Masked potential cells become a hard wall V = 1e6.

The eigensolver is shift-invert Lanczos (ARPACK). The module factors
H - sigma I itself, once per solve, with SuperLU under a symmetric
minimum-degree ordering on A^T + A (Liu, ACM TOMS 11 (1985) 141) and
diagonal pivots: the shift lies below the spectrum, so the matrix is
symmetric positive definite and this keeps the factor about half the size
of the default column ordering's. ARPACK applies the factor through a
counting operator, so the solution reports how often it did
(`opinv_calls`) and how large the factor is (`factor_nnz`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .currents import PhysicalParams
from .grid import ComplexField, GridSpec, ScalarField

V_WALL = 1e6
MAX_EIGENPAIRS = 20
DEGENERACY_FACTOR = 10.0


class EigenConvergenceError(RuntimeError):
    def __init__(self, message: str, energies=None, residuals=None):
        super().__init__(message)
        self.energies = energies
        self.residuals = residuals


class DegeneracyError(ValueError):
    """Selected eigenpairs are not degenerate; their combination would not
    be a stationary state."""


@dataclass
class Hamiltonian:
    spec: GridSpec
    potential: np.ndarray  # wall value already substituted at masked cells
    params: PhysicalParams

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        s = self.spec
        c = self.params.hbar**2 / (2.0 * self.params.mass)
        inv_dx2 = c / (s.dx * s.dx)
        inv_dy2 = c / (s.dy * s.dy)
        diag = 2.0 * (inv_dx2 + inv_dy2) + self.potential.ravel()
        n = s.size
        # x-neighbors: skip couplings that would wrap across row ends
        offx = np.full(n - 1, -inv_dx2)
        offx[s.nx - 1 :: s.nx] = 0.0
        offy = np.full(n - s.nx, -inv_dy2)
        return sp.diags(
            [diag, offx, offx, offy, offy],
            [0, 1, -1, s.nx, -s.nx],
            format="csr",
        )


def assemble(V: ScalarField, p: PhysicalParams) -> Hamiltonian:
    pot = np.where(V.mask, V.values, V_WALL)
    if not np.isfinite(pot).all():
        raise ValueError("potential has non-finite values at valid cells")
    return Hamiltonian(V.spec, pot, p)


@dataclass
class EigenSolution:
    spec: GridSpec
    energies: list[float]
    states: list[ComplexField]
    residuals: list[float]
    tol: float
    opinv_calls: int  # applications of (H - sigma I)^-1 during the Lanczos run
    factor_nnz: int  # stored nonzeros of SuperLU's L and U


def solve_lowest(
    H: Hamiltonian,
    count: int,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 0,
) -> EigenSolution:
    """Lowest `count` eigenpairs via shift-invert Lanczos (ARPACK).

    The shift sigma = min(V) - 1 sits below the whole spectrum, so the
    eigenvalues nearest the shift are the algebraically smallest ones, and
    H - sigma I is symmetric positive definite. It is factored once with
    SuperLU (symmetric minimum-degree ordering on A^T + A, diagonal
    pivots); ARPACK runs with tol=0 and applies that factor through an
    operator that counts its calls. Every pair's residual |H v - E v|/|v|
    is then checked against `tol`. Deterministic for a fixed seed (fixed
    start vector).
    """
    if not (1 <= count <= MAX_EIGENPAIRS):
        raise ValueError(f"count must be in 1..{MAX_EIGENPAIRS}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    A = H.matrix
    n = A.shape[0]
    if count >= n:
        raise ValueError(f"count {count} needs a grid of more than {count} cells (has {n})")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    sigma = float(H.potential.min()) - 1.0
    lu = spla.splu(
        (A - sigma * sp.identity(n, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    calls = 0

    def opinv(x):
        nonlocal calls
        calls += 1
        return lu.solve(x)

    def residual(lam, v):
        return float(np.linalg.norm(A @ v - lam * v) / np.linalg.norm(v))

    try:
        vals, vecs = spla.eigsh(
            A, k=count, sigma=sigma, which="LM", v0=v0, maxiter=max_iter, tol=0,
            OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float),
        )
    except spla.ArpackNoConvergence as err:
        got = err.eigenvalues if err.eigenvalues is not None else np.empty(0)
        res = [residual(lam, v) for lam, v in zip(got, err.eigenvectors.T)] if len(got) else None
        raise EigenConvergenceError(
            f"eigensolver did not converge within {max_iter} iterations",
            energies=[float(x) for x in got],
            residuals=res,
        ) from err

    order = np.argsort(vals)
    energies = [float(x) for x in vals[order]]
    vecs = vecs[:, order]
    residuals = [residual(lam, v) for lam, v in zip(energies, vecs.T)]
    for j, res in enumerate(residuals):
        if res > tol:
            raise EigenConvergenceError(
                f"eigenpair {j} residual {res:.3e} exceeds tol {tol:.3e}",
                energies=energies,
                residuals=residuals,
            )

    s = H.spec
    cell = s.dx * s.dy
    states = []
    for v in vecs.T:
        # deterministic sign: largest-magnitude component positive
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        v = v / np.sqrt(np.sum(v * v) * cell)
        states.append(ComplexField(s, v.reshape(s.shape).astype(complex)))

    return EigenSolution(
        spec=s,
        energies=energies,
        states=states,
        residuals=residuals,
        tol=tol,
        opinv_calls=calls,
        factor_nnz=int(lu.nnz),
    )


def combine(
    sol: EigenSolution,
    indices: list[int],
    coeffs: list[complex],
) -> tuple[ComplexField, float]:
    """Normalized linear combination of degenerate eigenstates."""
    if len(indices) != len(coeffs) or not indices:
        raise ValueError("indices and coeffs must be nonempty and equal-length")
    for i in indices:
        if not 0 <= i < len(sol.states):
            raise IndexError(f"eigenstate index {i} out of range")
    degeneracy_tol = DEGENERACY_FACTOR * sol.tol
    energies = [sol.energies[i] for i in indices]
    if max(energies) - min(energies) > degeneracy_tol:
        raise DegeneracyError(
            f"energies {energies} differ by more than {degeneracy_tol:.3e}; "
            "the combination is not stationary"
        )
    s = sol.spec
    psi = np.zeros(s.shape, dtype=complex)
    for i, c in zip(indices, coeffs):
        psi += complex(c) * sol.states[i].values
    norm = np.sqrt(np.sum(np.abs(psi) ** 2) * s.dx * s.dy)
    if norm == 0:
        raise ValueError("combination is identically zero")
    return ComplexField(s, psi / norm), float(np.mean(energies))


# --- Closed-form catalog ----------------------------------------------------

BUILTIN_NAMES = ("plane_wave", "ho_ground", "ho_vortex", "box_mode", "exp_z", "gauss_real")


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
    hbar, mass = p.hbar, p.mass
    if name == "plane_wave":
        k1 = float(params.get("k1", 1.0))
        k2 = float(params.get("k2", 0.0))
        psi = np.exp(1j * (k1 * X + k2 * Y))
        return ComplexField(spec, psi), hbar**2 * (k1**2 + k2**2) / (2.0 * mass)
    if name == "ho_ground":
        a = mass / hbar  # omega = 1
        psi = np.exp(-0.5 * a * (X**2 + Y**2)).astype(complex)
        return ComplexField(spec, psi), hbar * 1.0
    if name == "ho_vortex":
        ell = int(params.get("l", 1))
        if ell < 1:
            raise ValueError("ho_vortex needs l >= 1")
        a = mass / hbar
        z = np.sqrt(a) * (X + 1j * Y)
        psi = z**ell * np.exp(-0.5 * a * (X**2 + Y**2))
        return ComplexField(spec, psi), hbar * (ell + 1.0)
    if name == "box_mode":
        n1 = int(params.get("n1", 1))
        n2 = int(params.get("n2", 1))
        if n1 < 1 or n2 < 1:
            raise ValueError("box_mode needs n1, n2 >= 1")
        psi = (np.sin(n1 * np.pi * X) * np.sin(n2 * np.pi * Y)).astype(complex)
        return ComplexField(spec, psi), hbar**2 * np.pi**2 * (n1**2 + n2**2) / (2.0 * mass)
    if name == "exp_z":
        return ComplexField(spec, np.exp(X + 1j * Y)), None
    if name == "gauss_real":
        sigma = float(params.get("sigma", 1.0))
        if sigma <= 0:
            raise ValueError("gauss_real needs sigma > 0")
        psi = np.exp(-0.5 * (X**2 + Y**2) / sigma**2).astype(complex)
        return ComplexField(spec, psi), None
    raise ValueError(f"unknown builtin state {name!r}; choose from {BUILTIN_NAMES}")
