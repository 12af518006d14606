"""Discrete stationary Schrodinger operator on the grid, lowest-eigenpair
solver and degenerate-pair combination. This is the only module that needs
scipy; the closed-form states live in `catalog` and are re-exported here.

The operator is H = -(hbar^2/2m) Lap5 + V with Dirichlet boundary (psi = 0
outside the grid). Its 5-point Laplacian matches the grid module's interior
stencil, so the continuity-defect diagnostics vanish to roundoff on
converged eigenstates. Masked potential cells become a hard wall V = 1e6.

The potential alone picks one of two eigensolvers:

- A separable potential, V[j, i] = a[i] + b[j] to rounding and no wall
  cell, makes H = T_x (x) I + I (x) T_y a Kronecker sum of two tridiagonal
  matrices. Its eigenpairs are sums of 1D eigenvalues and outer products
  of 1D eigenvectors (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185), so
  the lowest ones come exactly from two tridiagonal eigenproblems.
- Any other potential takes shift-invert Lanczos (ARPACK). The module
  factors H - sigma I itself, once per solve, with SuperLU under a
  symmetric minimum-degree ordering on A^T + A (Liu, ACM TOMS 11 (1985)
  141) and diagonal pivots: the shift lies below the spectrum, so the
  matrix is symmetric positive definite and this keeps the factor about
  half the size of the default column ordering's. ARPACK applies the
  factor through a counting operator, so the solution reports how often
  it did (`opinv_calls`) and how large the factor is (`factor_nnz`).

Either way every pair's residual |Hv - Ev|/|v| applies H through the
5-point stencil (`Hamiltonian.apply`), bit for bit the assembled matrix's
product, so the separable path never builds the sparse matrix. Importing
this module loads `scipy.linalg` only; `scipy.sparse` and
`scipy.sparse.linalg` load on the first shift-invert solve or the first
read of `Hamiltonian.matrix`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .catalog import BUILTIN_NAMES, builtin_state  # noqa: F401 (re-exported)
from .currents import PhysicalParams
from .grid import ComplexField, GridSpec, ScalarField

V_WALL = 1e6
MAX_EIGENPAIRS = 20
DEGENERACY_FACTOR = 10.0

# scipy.sparse serves shift-invert alone, so it is imported where it is used;
# these names resolve on access (PEP 562) and are never bound here
_SPARSE = {"sp": "scipy.sparse", "spla": "scipy.sparse.linalg"}


def __getattr__(name: str):
    if name in _SPARSE:
        return importlib.import_module(_SPARSE[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EigenConvergenceError(RuntimeError):
    def __init__(self, message: str, energies: list[float], residuals: list[float]):
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

    def _coefficients(self) -> tuple[float, float, np.ndarray]:
        """c/dx^2, c/dy^2 and the (ny, nx) diagonal 2c/dx^2 + 2c/dy^2 + V."""
        s = self.spec
        c = self.params.hbar**2 / (2.0 * self.params.mass)
        inv_dx2 = c / (s.dx * s.dx)
        inv_dy2 = c / (s.dy * s.dy)
        return inv_dx2, inv_dy2, 2.0 * (inv_dx2 + inv_dy2) + self.potential

    def apply(self, v: np.ndarray) -> np.ndarray:
        """H v for v of `spec.size` values, flat or (ny, nx), in v's shape.

        Each cell sums its stencil terms in the CSR row's column order
        (-nx, -1, 0, +1, +nx) into +0.0, as `matrix @ v` does, so for finite
        v the two agree bit for bit: the zeros `matrix` drops add nothing to
        a sum that starts at +0.0."""
        inv_dx2, inv_dy2, diag = self._coefficients()
        x = np.reshape(v, self.spec.shape)
        out = np.zeros(self.spec.shape)
        out[1:, :] += -inv_dy2 * x[:-1, :]
        out[:, 1:] += -inv_dx2 * x[:, :-1]
        out += diag * x
        out[:, :-1] += -inv_dx2 * x[:, 1:]
        out[:-1, :] += -inv_dy2 * x[1:, :]
        return out.reshape(np.shape(v))

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        s = self.spec
        inv_dx2, inv_dy2, diag = self._coefficients()
        diag = diag.ravel()
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
    if not V.mask.any():
        raise ValueError("potential is non-finite at every cell")
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
    method: str  # "separable" or "shift-invert"
    solved_count: int  # pairs solved for: count, or count + 1 on a shift-invert retry
    opinv_calls: int  # applications of (H - sigma I)^-1, over every Lanczos run
    factor_nnz: int  # stored nonzeros of SuperLU's L and U


def solve_lowest(
    H: Hamiltonian,
    count: int,
    tol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 0,
) -> EigenSolution:
    """Lowest `count` eigenpairs, ascending. Every pair's residual |H v - E v|/|v|
    applies H through the 5-point stencil (`H.apply`, bit for bit `H.matrix @ v`);
    a pair over `tol` raises `EigenConvergenceError` with every energy and
    residual, its message naming the round-off level eps ||H||_inf.

    A separable potential with no wall cell (`_separable_parts`) is solved
    exactly from two tridiagonal eigenproblems (`_kronecker_pairs`):
    `max_iter` and `seed` have no effect, nothing is retried, and
    `opinv_calls` and `factor_nnz` read 0. Any other potential takes
    shift-invert Lanczos (`_shift_invert`). The potential alone picks the
    path, named by `method`. Only shift-invert builds `H.matrix` and loads
    `scipy.sparse`. Deterministic for a fixed seed.

    Each state has its largest-magnitude component positive and unit norm
    on the grid (sum |psi|^2 dx dy = 1).
    """
    if not (1 <= count <= MAX_EIGENPAIRS):
        raise ValueError(f"count must be in 1..{MAX_EIGENPAIRS}")
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    n = H.spec.size
    if count >= n:
        raise ValueError(f"count {count} needs a grid of more than {count} cells (has {n})")
    inv_dx2, inv_dy2, diag = H._coefficients()
    # eps ||H||_inf (Gershgorin): a residual near it is round-off
    roundoff = np.finfo(float).eps * (np.abs(diag).max() + 2.0 * inv_dx2 + 2.0 * inv_dy2)
    parts = _separable_parts(H.potential)
    if parts is not None:
        energies, vecs = _kronecker_pairs(inv_dx2, inv_dy2, *parts, count)
        residuals = [_residual(H, lam, v) for lam, v in zip(energies, vecs.T)]
        counters = {"method": "separable", "solved_count": count,
                    "opinv_calls": 0, "factor_nnz": 0}
    else:
        energies, vecs, residuals, counters = _shift_invert(H, count, tol, max_iter, seed)
    for j, res in enumerate(residuals):
        if res > tol:
            raise EigenConvergenceError(
                f"eigenpair {j} residual {res:.3e} exceeds tol {tol:.3e}; "
                f"the round-off level eps*||H||_inf is {roundoff:.3e}",
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

    return EigenSolution(spec=s, energies=energies, states=states, residuals=residuals,
                         tol=tol, **counters)


def _residual(H: Hamiltonian, lam: float, v: np.ndarray) -> float:
    return float(np.linalg.norm(H.apply(v) - lam * v) / np.linalg.norm(v))


def _separable_parts(V: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) with V[j, i] = a[i] + b[j] to rounding, or None.

    a = V[0, :] and b = V[:, 0] - V[0, 0]; V is accepted when
    max |V - a - b| <= 8 eps max(max |V|, 1). A wall cell (`V_WALL`) is
    refused outright, so masked potentials keep shift-invert."""
    if (V == V_WALL).any():
        return None
    a = V[0, :]
    b = V[:, 0] - V[0, 0]
    gap = np.abs(V - a - b[:, None]).max()
    if gap > 8 * np.finfo(float).eps * max(np.abs(V).max(), 1.0):
        return None
    return a, b


def _kronecker_pairs(inv_dx2: float, inv_dy2: float, a: np.ndarray, b: np.ndarray, count: int):
    """The lowest `count` pairs of H = T_x (x) I + I (x) T_y, ascending:
    energies e_y[j] + e_x[i] and vectors outer(u_y[:, j], u_x[:, i]),
    from the lowest min(count, n) pairs of each axis's tridiagonal
    T = tridiag(-k, 2k + w, -k), k its coupling. Ties keep row-major order."""

    def axis(w, inv_h2):
        k = min(count, len(w))
        return sla.eigh_tridiagonal(2.0 * inv_h2 + w, np.full(len(w) - 1, -inv_h2),
                                    select="i", select_range=(0, k - 1))

    e_x, u_x = axis(a, inv_dx2)
    e_y, u_y = axis(b, inv_dy2)
    sums = (e_y[:, None] + e_x[None, :]).ravel()
    picked = np.argsort(sums, kind="stable")[:count]
    energies = [float(sums[k]) for k in picked]
    vecs = np.stack([np.outer(u_y[:, k // len(e_x)], u_x[:, k % len(e_x)]).ravel()
                     for k in picked], axis=1)
    return energies, vecs


def _shift_invert(H: Hamiltonian, count: int, tol: float, max_iter: int, seed: int):
    """Lowest `count` pairs via shift-invert Lanczos (ARPACK), with their
    residuals and the solver's counters.

    The shift sigma = min(V) - 1 sits below the whole spectrum, so the
    eigenvalues nearest the shift are the algebraically smallest ones, and
    H - sigma I is symmetric positive definite. It is factored once with
    SuperLU (symmetric minimum-degree ordering on A^T + A, diagonal
    pivots); ARPACK runs with tol=0 and applies that factor through an
    operator that counts its calls.

    Lanczos finds repeated eigenvalues only through round-off, so a `count`
    that cuts a degenerate cluster can leave its last member short of `tol`
    (Parlett, The Symmetric Eigenvalue Problem, ch. 13). When a pair fails,
    the solve runs once more with `count + 1` pairs and the first `count`
    are returned.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    A = H.matrix
    n = H.spec.size
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

    def lanczos(k):
        """The lowest k pairs, ascending, with their residuals."""
        try:
            vals, vecs = spla.eigsh(
                A, k=k, sigma=sigma, which="LM", v0=v0, maxiter=max_iter, tol=0,
                OPinv=spla.LinearOperator((n, n), matvec=opinv, dtype=float),
            )
        except spla.ArpackNoConvergence as err:
            got = err.eigenvalues if err.eigenvalues is not None else np.empty(0)
            vecs = err.eigenvectors.T if len(got) else []
            raise EigenConvergenceError(
                f"eigensolver did not converge within {max_iter} iterations",
                energies=[float(x) for x in got],
                residuals=[_residual(H, lam, v) for lam, v in zip(got, vecs)],
            ) from err
        order = np.argsort(vals)
        energies = [float(x) for x in vals[order]]
        vecs = vecs[:, order]
        return energies, vecs, [_residual(H, lam, v) for lam, v in zip(energies, vecs.T)]

    solved = count
    energies, vecs, residuals = lanczos(solved)
    if max(residuals) > tol and count < MAX_EIGENPAIRS and count + 1 < n:
        solved = count + 1
        energies, vecs, residuals = lanczos(solved)
        energies, vecs, residuals = energies[:count], vecs[:, :count], residuals[:count]
    counters = {"method": "shift-invert", "solved_count": solved,
                "opinv_calls": calls, "factor_nnz": int(lu.nnz)}
    return energies, vecs, residuals, counters


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
            raise ValueError(f"eigenstate index {i} out of range 0..{len(sol.states) - 1}")
    degeneracy_tol = DEGENERACY_FACTOR * sol.tol
    energies = [sol.energies[i] for i in indices]
    if max(energies) - min(energies) > degeneracy_tol:
        raise DegeneracyError(
            f"energies {energies} differ by more than {degeneracy_tol:.3e}; "
            "the combination is not stationary"
        )
    s = sol.spec
    psi = np.zeros(s.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused
        for i, c in zip(indices, coeffs):
            psi += complex(c) * sol.states[i].values
        norm = np.sqrt(np.sum(np.abs(psi) ** 2) * s.dx * s.dy)
        if norm == 0 and psi.any():
            # the squares underflow: rescale only then, so other norms keep their bits
            psi /= np.abs(psi).max()
            norm = np.sqrt(np.sum(np.abs(psi) ** 2) * s.dx * s.dy)
    if not np.isfinite(norm):
        raise ValueError("combination has no finite norm; check the coefficients")
    if norm == 0:
        raise ValueError("combination is identically zero")
    return ComplexField(s, psi / norm), float(np.mean(energies))
