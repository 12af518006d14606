import numpy as np
import pytest

from madelab.currents import PhysicalParams
from madelab.grid import GridSpec, ScalarField
from madelab.spectral import (
    BUILTIN_NAMES,
    DegeneracyError,
    assemble,
    builtin_state,
    combine,
    solve_lowest,
)

P = PhysicalParams()


def apply(H, psi):
    """Matrix-free action of H on a (ny, nx) array, Dirichlet outside: the
    independent oracle for `H.matrix`."""
    s = H.spec
    pad = np.pad(psi, 1)
    lap = (pad[1:-1, 2:] - 2.0 * psi + pad[1:-1, :-2]) / (s.dx * s.dx) + (
        pad[2:, 1:-1] - 2.0 * psi + pad[:-2, 1:-1]
    ) / (s.dy * s.dy)
    c = H.params.hbar**2 / (2.0 * H.params.mass)
    return -c * lap + H.potential * psi


def free_hamiltonian(spec):
    return assemble(ScalarField(spec, np.zeros(spec.shape)), P)


def box_spec(n):
    # interior points of the unit box: Dirichlet row/column just outside
    h = 1.0 / (n + 1)
    return GridSpec(n, n, h, h, h, h)


def ho_spec(n=97, half=6.0):
    h = 2 * half / (n - 1)
    return GridSpec(n, n, -half, -half, h, h)


def ho_potential(spec):
    X, Y = spec.meshgrid()
    return ScalarField(spec, 0.5 * (X**2 + Y**2))


class TestOperator:
    def test_stencil_by_hand(self):
        spec = GridSpec(3, 3, 0, 0, 0.5, 0.5)
        H = free_hamiltonian(spec)
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        out = apply(H, delta)
        # -(1/2) * 5-point laplacian, h = 1/2: center 8, neighbors -2
        expected = np.array([[0, -2, 0], [-2, 8, -2], [0, -2, 0]], dtype=float)
        assert np.array_equal(out, expected)

    def test_zero_field(self):
        spec = GridSpec(4, 5, 0, 0, 0.3, 0.4)
        H = free_hamiltonian(spec)
        assert not apply(H, np.zeros(spec.shape)).any()

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(3)
        spec = GridSpec(7, 6, -1, -1, 0.3, 0.35)
        X, Y = spec.meshgrid()
        H = assemble(ScalarField(spec, X**2 + Y), P)
        psi = rng.standard_normal(spec.shape)
        assert np.allclose(H.matrix @ psi.ravel(), apply(H, psi).ravel(), atol=1e-12)

    def test_no_row_wrap_coupling(self):
        # right edge of one row must not couple to left edge of the next
        spec = GridSpec(4, 4, 0, 0, 1.0, 1.0)
        A = free_hamiltonian(spec).matrix.toarray()
        assert A[3, 4] == 0.0 and A[4, 3] == 0.0
        assert A[2, 3] != 0.0

    def test_constant_potential_shifts_spectrum(self):
        spec = box_spec(20)
        H0 = free_hamiltonian(spec)
        Hc = assemble(ScalarField(spec, np.full(spec.shape, 5.0)), P)
        E0 = solve_lowest(H0, 3).energies
        Ec = solve_lowest(Hc, 3).energies
        assert np.allclose(np.array(Ec) - np.array(E0), 5.0, atol=1e-9)

    def test_masked_cells_become_wall(self):
        spec = GridSpec(5, 5, 0, 0, 1.0, 1.0)
        V = ScalarField(spec, np.zeros(spec.shape))
        V.mask[2, 2] = False
        H = assemble(V, P)
        assert H.potential[2, 2] == 1e6

    def test_nonfinite_potential_becomes_wall(self):
        # ScalarField auto-masks non-finite entries; assemble walls them off
        spec = GridSpec(4, 4, 0, 0, 1.0, 1.0)
        vals = np.zeros(spec.shape)
        vals[1, 1] = np.inf
        H = assemble(ScalarField(spec, vals), P)
        assert H.potential[1, 1] == 1e6
        assert np.isfinite(H.potential).all()

    def test_hbar_mass_scaling(self):
        spec = box_spec(15)
        E1 = solve_lowest(free_hamiltonian(spec), 1).energies[0]
        H2 = assemble(
            ScalarField(spec, np.zeros(spec.shape)), PhysicalParams(hbar=2.0, mass=4.0)
        )
        assert solve_lowest(H2, 1).energies[0] == pytest.approx(E1, rel=1e-12)


class TestSolver:
    def test_box_energies(self):
        # Dirichlet box: E_{n1 n2} = pi^2 (n1^2 + n2^2)/2, degenerate (1,2)/(2,1)
        sol = solve_lowest(free_hamiltonian(box_spec(64)), 4)
        exact = np.pi**2 / 2 * np.array([2, 5, 5, 8])
        assert np.allclose(sol.energies, exact, rtol=2e-3)
        assert abs(sol.energies[1] - sol.energies[2]) < 1e-9

    def test_oscillator_energies(self):
        H = assemble(ho_potential(ho_spec()), P)
        sol = solve_lowest(H, 4)
        assert np.allclose(sol.energies, [1, 2, 2, 3], atol=0.01)

    def test_rayleigh_quotient_consistent(self):
        spec = box_spec(32)
        H = free_hamiltonian(spec)
        sol = solve_lowest(H, 2)
        for E, psi in zip(sol.energies, sol.states):
            v = psi.values.real
            rq = np.sum(v * apply(H, v)) / np.sum(v * v)
            assert rq == pytest.approx(E, rel=1e-10)

    def test_orthonormal_states(self):
        spec = box_spec(32)
        sol = solve_lowest(free_hamiltonian(spec), 3)
        cell = spec.dx * spec.dy
        G = np.array(
            [
                [np.sum(a.values.real * b.values.real) * cell for b in sol.states]
                for a in sol.states
            ]
        )
        assert np.allclose(G, np.eye(3), atol=1e-8)

    def test_deterministic_across_runs(self):
        H = assemble(ho_potential(ho_spec(49)), P)
        s1 = solve_lowest(H, 3, seed=11)
        s2 = solve_lowest(H, 3, seed=11)
        assert s1.energies == s2.energies
        for a, b in zip(s1.states, s2.states):
            assert np.array_equal(a.values, b.values)

    def test_sign_convention_stable(self):
        H = assemble(ho_potential(ho_spec(49)), P)
        s1 = solve_lowest(H, 1, seed=1)
        s2 = solve_lowest(H, 1, seed=99)
        assert np.allclose(s1.states[0].values, s2.states[0].values, atol=1e-7)

    def test_normalization(self):
        spec = box_spec(24)
        sol = solve_lowest(free_hamiltonian(spec), 1)
        total = np.sum(np.abs(sol.states[0].values) ** 2) * spec.dx * spec.dy
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_count_bounds(self):
        H = free_hamiltonian(box_spec(10))
        with pytest.raises(ValueError):
            solve_lowest(H, 0)
        with pytest.raises(ValueError):
            solve_lowest(H, 21)

    def test_residuals_below_tol(self):
        sol = solve_lowest(free_hamiltonian(box_spec(24)), 2, tol=1e-8)
        assert all(r <= 1e-8 for r in sol.residuals)


@pytest.fixture(scope="module")
def ho_sol():
    return solve_lowest(assemble(ho_potential(ho_spec(65, 5.0)), P), 4)


class TestCombine:
    def test_vortex_combination_normalized(self, ho_sol):
        psi, E = combine(ho_sol, [1, 2], [1.0, 1.0j])
        cell = ho_sol.spec.dx * ho_sol.spec.dy
        assert np.sum(np.abs(psi.values) ** 2) * cell == pytest.approx(1.0)
        assert E == pytest.approx(2.0, abs=0.02)
        # genuinely complex now
        assert np.max(np.abs(psi.values.imag)) > 0.1

    def test_non_degenerate_rejected(self, ho_sol):
        with pytest.raises(DegeneracyError):
            combine(ho_sol, [0, 1], [1.0, 1.0])

    def test_bad_indices(self, ho_sol):
        with pytest.raises(IndexError):
            combine(ho_sol, [0, 9], [1.0, 1.0])
        with pytest.raises(ValueError):
            combine(ho_sol, [], [])
        with pytest.raises(ValueError):
            combine(ho_sol, [1, 2], [1.0])

    def test_zero_combination_rejected(self, ho_sol):
        with pytest.raises(ValueError):
            combine(ho_sol, [1, 1], [1.0, -1.0])


class TestBuiltins:
    def test_names_all_constructible(self):
        spec = GridSpec(16, 16, 0.1, 0.1, 0.05, 0.05)
        for name in BUILTIN_NAMES:
            psi, E = builtin_state(name, {}, spec, P)
            assert psi.values.shape == spec.shape

    def test_unknown_name(self):
        spec = GridSpec(8, 8, 0, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            builtin_state("nope", {}, spec, P)

    def test_energies(self):
        spec = GridSpec(16, 16, -1, -1, 0.1, 0.1)
        assert builtin_state("plane_wave", {"k1": 2, "k2": 3}, spec, P)[1] == 6.5
        assert builtin_state("ho_ground", {}, spec, P)[1] == 1.0
        assert builtin_state("ho_vortex", {"l": 2}, spec, P)[1] == 3.0
        assert builtin_state("box_mode", {"n1": 1, "n2": 2}, spec, P)[1] == pytest.approx(
            2.5 * np.pi**2
        )
        assert builtin_state("exp_z", {}, spec, P)[1] is None
        assert builtin_state("gauss_real", {"sigma": 2.0}, spec, P)[1] is None

    def test_parameter_validation(self):
        spec = GridSpec(8, 8, 0, 0, 0.1, 0.1)
        with pytest.raises(ValueError):
            builtin_state("ho_vortex", {"l": 0}, spec, P)
        with pytest.raises(ValueError):
            builtin_state("box_mode", {"n1": 0}, spec, P)
        with pytest.raises(ValueError):
            builtin_state("gauss_real", {"sigma": -1}, spec, P)

    def test_ho_ground_satisfies_eigenproblem(self):
        # H psi ~ E psi pointwise away from the boundary
        spec = ho_spec(97, 6.0)
        psi, E = builtin_state("ho_ground", {}, spec, P)
        H = assemble(ho_potential(spec), P)
        out = apply(H, psi.values.real)
        sel = np.hypot(*spec.meshgrid()) < 2.0
        assert np.max(np.abs(out - E * psi.values.real)[sel]) < 10 * spec.dx**2

    def test_discrete_eigenstate_roundoff_continuity(self):
        # solved box state: Im(lap psi/psi) vanishes to roundoff because the
        # solver and diagnostics share one stencil
        from madelab.currents import probability_current
        from madelab.grid import interior_mask
        from madelab.madelung import decompose

        sol = solve_lowest(free_hamiltonian(box_spec(48)), 1)
        m = decompose(sol.states[0])
        _, _, defectC = probability_current(m, P)
        assert np.max(np.abs(defectC.values[interior_mask(defectC.mask)])) < 1e-10
