from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from madelab.currents import PhysicalParams
from madelab.grid import GridSpec, ScalarField
from madelab import spectral
from madelab.spectral import (
    BUILTIN_NAMES,
    DegeneracyError,
    EigenConvergenceError,
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


def quartic_potential(spec):
    # not separable on the grid, so it takes shift-invert Lanczos
    X, Y = spec.meshgrid()
    r2 = X**2 + Y**2
    return ScalarField(spec, 0.5 * r2 + 0.05 * r2**2)


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

    def test_potential_nonfinite_everywhere_rejected(self):
        # no finite cell leaves nothing but wall; that is not a potential
        spec = GridSpec(4, 4, 0, 0, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite at every cell"):
            assemble(ScalarField(spec, np.full(spec.shape, np.inf)), P)

    def test_hbar_mass_scaling(self):
        spec = box_spec(15)
        E1 = solve_lowest(free_hamiltonian(spec), 1).energies[0]
        H2 = assemble(
            ScalarField(spec, np.zeros(spec.shape)), PhysicalParams(hbar=2.0, mass=4.0)
        )
        assert solve_lowest(H2, 1).energies[0] == pytest.approx(E1, rel=1e-12)


@st.composite
def operators_and_vectors(draw):
    """A Hamiltonian on 3-40 cells per axis, with random spacings, hbar and
    m and a potential with or without wall cells, and a vector to apply it
    to: random, random with signed zeros, or all zero."""
    positive = st.floats(1e-2, 1e2)
    spec = GridSpec(draw(st.integers(3, 40)), draw(st.integers(3, 40)), 0.0, 0.0,
                    draw(positive), draw(positive))
    p = PhysicalParams(hbar=draw(positive), mass=draw(positive))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V = rng.uniform(-100.0, 100.0, spec.shape)
    if draw(st.booleans()):
        V[rng.random(spec.shape) < 0.3] = np.nan  # masked: a wall cell
        V[0, 0] = 0.0
    H = assemble(ScalarField(spec, V), p)
    kind = draw(st.sampled_from(["random", "signed-zero", "zero"]))
    v = rng.standard_normal(spec.size) if kind != "zero" else np.zeros(spec.size)
    if kind == "signed-zero":
        pick = rng.integers(0, 3, spec.size)
        v[pick == 1] = 0.0
        v[pick == 2] = -0.0
    return H, v


@given(operators_and_vectors())
def test_apply_is_the_matrix_product_bit_for_bit(case):
    H, v = case
    assert np.array_equal(H.apply(v).view(np.uint64), (H.matrix @ v).view(np.uint64))
    assert np.array_equal(H.apply(v.reshape(H.spec.shape)).ravel(), H.apply(v))


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

    def test_shift_invert_deterministic_and_sign_stable(self):
        H = assemble(quartic_potential(ho_spec(49)), P)
        s1 = solve_lowest(H, 3, seed=11)
        s2 = solve_lowest(H, 3, seed=11)
        assert s1.method == "shift-invert" and s1.energies == s2.energies
        for a, b in zip(s1.states, s2.states):
            assert np.array_equal(a.values, b.values)
        s3 = solve_lowest(H, 1, seed=99)
        assert np.allclose(s1.states[0].values, s3.states[0].values, atol=1e-7)

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

    @pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        # combine's degeneracy test scales with tol; at inf it accepts any mix
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_lowest(free_hamiltonian(box_spec(8)), 1, tol=tol)

    def test_residuals_below_tol(self):
        sol = solve_lowest(free_hamiltonian(box_spec(24)), 2, tol=1e-8)
        assert all(r <= 1e-8 for r in sol.residuals)

    def test_separable_solve_builds_no_matrix(self):
        H = assemble(ho_potential(ho_spec(33)), P)
        assert solve_lowest(H, 3).method == "separable"
        assert "matrix" not in H.__dict__
        Hq = assemble(quartic_potential(ho_spec(33)), P)
        assert solve_lowest(Hq, 3).method == "shift-invert"
        assert "matrix" in Hq.__dict__

    def test_count_must_be_below_cell_count(self):
        H = free_hamiltonian(GridSpec(3, 3, 0, 0, 0.25, 0.25))
        with pytest.raises(ValueError, match="more than 9 cells"):
            solve_lowest(H, 9)
        assert len(solve_lowest(H, 8).energies) == 8


@pytest.fixture
def eigsh_runs(monkeypatch):
    """One entry per Lanczos run: the applications ARPACK makes of the
    operator it is handed, counted independently of the solver's counter."""
    seen = []
    eigsh = spla.eigsh

    def counting_eigsh(*args, OPinv, **kwargs):
        seen.append(0)

        def apply(x):
            seen[-1] += 1
            return OPinv.matvec(x)

        op = spla.LinearOperator(OPinv.shape, matvec=apply, dtype=OPinv.dtype)
        return eigsh(*args, OPinv=op, **kwargs)

    monkeypatch.setattr(spectral.spla, "eigsh", counting_eigsh)
    return seen


def on_cli_grid(potential, n, half=6.0):
    # the CLI's grid convention on [-half, half]^2, as in the headline flow
    h = 2 * half / (n + 1)
    return assemble(potential(GridSpec(n, n, -half + h, -half + h, h, h)), P)


class TestCounters:
    def test_opinv_calls_are_the_real_count(self, eigsh_runs):
        seen = eigsh_runs
        H = assemble(quartic_potential(ho_spec(49)), P)
        s1 = solve_lowest(H, 3, seed=5)
        s2 = solve_lowest(H, 3, seed=5)
        assert s1.method == "shift-invert"
        assert s1.opinv_calls > 0
        assert seen == [s1.opinv_calls, s2.opinv_calls]
        assert s1.opinv_calls == s2.opinv_calls
        assert s1.factor_nnz == s2.factor_nnz > H.matrix.nnz

    def test_fill_reducing_factor_at_256(self):
        # the default column ordering (COLAMD) fills 6.70 M nonzeros here
        sol = solve_lowest(on_cli_grid(quartic_potential, 256), 1)
        assert 0 < sol.factor_nnz <= 3.6e6


class TestWholeClusters:
    """A count that cuts a degenerate cluster is completed by one retry."""

    def cut_pair(self):
        # 129^2 quartic on [-6, 6]^2: count 2 cuts the E = 2.2365 pair; the
        # cut member alone reads 1.45e-11 at seed 2 and 8.9e-12 at seed 0
        return on_cli_grid(quartic_potential, 129)

    def test_cut_cluster_is_solved_whole(self, eigsh_runs):
        H = self.cut_pair()
        assert solve_lowest(H, 2, tol=1e-11, seed=0).solved_count == 2
        del eigsh_runs[:]
        sol = solve_lowest(H, 2, tol=1e-11, seed=2)
        assert sol.solved_count == 3
        assert len(eigsh_runs) == 2 and sol.opinv_calls == sum(eigsh_runs)
        assert len(sol.energies) == len(sol.states) == len(sol.residuals) == 2
        assert max(sol.residuals) <= 1e-11
        whole = solve_lowest(H, 3, tol=1e-11, seed=2)
        assert np.allclose(sol.energies, whole.energies[:2], rtol=0, atol=1e-11)

    def test_headline_flow_never_retries(self, eigsh_runs):
        # the headline flow's shape on a potential that keeps shift-invert
        sol = solve_lowest(on_cli_grid(quartic_potential, 256), 3, tol=1e-10, seed=1)
        assert sol.solved_count == 3
        assert eigsh_runs == [sol.opinv_calls]

    def test_retry_failure_reports_the_requested_prefix(self, eigsh_runs):
        H = assemble(quartic_potential(ho_spec(32, 5.0)), P)
        with pytest.raises(EigenConvergenceError) as info:
            solve_lowest(H, 4, tol=1e-16)
        assert len(eigsh_runs) == 2
        assert len(info.value.energies) == len(info.value.residuals) == 4

    def test_empty_arpack_result_gives_empty_lists(self, monkeypatch):
        def no_pairs(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", None, None)

        monkeypatch.setattr(spectral.spla, "eigsh", no_pairs)
        with pytest.raises(EigenConvergenceError) as info:
            solve_lowest(assemble(quartic_potential(ho_spec(8, 5.0)), P), 2)
        assert info.value.energies == info.value.residuals == []

    def test_no_retry_past_the_cell_count(self, eigsh_runs):
        # 8 pairs of a 9-cell grid leave no room for a ninth
        H = assemble(quartic_potential(GridSpec(3, 3, 0, 0, 0.25, 0.25)), P)
        with pytest.raises(EigenConvergenceError):
            solve_lowest(H, 8, tol=1e-30)
        assert len(eigsh_runs) == 1


def free_energies(spec, count, params=P):
    """The lowest `count` closed-form eigenvalues of the free Dirichlet
    grid: sums of c (4/h^2) sin^2(k pi / (2 (n + 1))) over the two axes."""
    c = params.hbar**2 / (2.0 * params.mass)

    def axis(n, h):
        k = np.arange(1, n + 1)
        return c * (4.0 / (h * h)) * np.sin(k * np.pi / (2 * (n + 1))) ** 2

    return np.sort((axis(spec.ny, spec.dy)[:, None] + axis(spec.nx, spec.dx)).ravel())[:count]


def walled_column():
    # zero with one wall column is still a[i] + b[j]; walls keep shift-invert
    V = ScalarField(ho_spec(33, 5.0), np.zeros((33, 33)))
    V.mask[:, 5] = False
    return V


def nearly_separable():
    V = ho_potential(ho_spec(33, 5.0))
    X, Y = V.spec.meshgrid()
    return ScalarField(V.spec, V.values + 1e-12 * X * Y)


class TestSeparable:
    """Separable potentials are solved from two tridiagonal eigenproblems."""

    @pytest.mark.parametrize("V, method", [
        (ho_potential(ho_spec(33, 5.0)), "separable"),
        (ScalarField(ho_spec(33, 5.0), np.zeros((33, 33))), "separable"),
        (quartic_potential(ho_spec(33, 5.0)), "shift-invert"),
        (nearly_separable(), "shift-invert"),
        (walled_column(), "shift-invert"),
    ], ids=["oscillator", "zero", "quartic", "nearly-separable", "walled"])
    def test_the_potential_picks_the_path(self, V, method, eigsh_runs):
        sol = solve_lowest(assemble(V, P), 2)
        assert sol.method == method
        if method == "separable":
            counters = (sol.opinv_calls, sol.factor_nnz, sol.solved_count)
            assert counters == (0, 0, 2) and eigsh_runs == []
        else:
            assert sol.opinv_calls == sum(eigsh_runs) > 0

    def test_headline_potential_is_separable(self):
        from madelab import exprlang

        n, half = 256, 6.0
        h = 2 * half / (n + 1)
        spec = GridSpec(n, n, -half + h, -half + h, h, h)
        V = exprlang.eval_field(exprlang.parse("(x^2+y^2)/2"), spec).values.real
        assert spectral._separable_parts(V) is not None

    @pytest.mark.parametrize("params", [P, PhysicalParams(hbar=0.7, mass=1.9)])
    def test_free_grid_closed_form(self, params):
        spec = GridSpec(17, 23, 0, 0, 0.1, 0.07)
        H = assemble(ScalarField(spec, np.zeros(spec.shape)), params)
        sol = solve_lowest(H, 6, tol=1e-10)
        np.testing.assert_allclose(sol.energies, free_energies(spec, 6, params),
                                   rtol=1e-12, atol=0)

    def test_one_cell_axis(self):
        # GridSpec needs 3 cells per axis, so the pair builder is called
        # directly: T_x is 1 x 1 with no off-diagonal
        spec = SimpleNamespace(nx=1, ny=12, dx=0.2, dy=0.1)
        H = SimpleNamespace(spec=spec, params=P)
        energies, vecs = spectral._kronecker_pairs(H, np.zeros(1), np.zeros(12), 3)
        np.testing.assert_allclose(energies, free_energies(spec, 3), rtol=1e-12, atol=0)
        assert vecs.shape == (12, 3)
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)

    def test_count_above_one_axis_cell_count(self):
        # 3 x 40 cells (the narrowest axis a GridSpec allows), count 5 > nx:
        # the dense spectrum is the oracle
        rng = np.random.default_rng(4)
        spec = GridSpec(3, 40, 0, 0, 0.3, 0.1)
        V = ScalarField(spec, rng.uniform(0, 2, 40)[:, None] + rng.uniform(0, 2, 3))
        H = assemble(V, P)
        sol = solve_lowest(H, 5, tol=1e-10)
        assert sol.method == "separable"
        dense = np.linalg.eigvalsh(H.matrix.toarray())[:5]
        np.testing.assert_allclose(sol.energies, dense, rtol=1e-12, atol=0)
        cell = spec.dx * spec.dy
        G = np.array([[np.sum(a.values.real * b.values.real) * cell for b in sol.states]
                      for a in sol.states])
        assert np.allclose(G, np.eye(5), atol=1e-12)

    def test_seed_has_no_effect(self):
        H = assemble(ho_potential(ho_spec(49)), P)
        s1 = solve_lowest(H, 4, seed=0, max_iter=1)
        s2 = solve_lowest(H, 4, seed=12345)
        assert s1.energies == s2.energies and s1.residuals == s2.residuals
        for a, b in zip(s1.states, s2.states):
            assert np.array_equal(a.values, b.values)

    def test_residual_failure_is_not_retried(self, eigsh_runs):
        H = assemble(ho_potential(ho_spec(32, 5.0)), P)
        with pytest.raises(EigenConvergenceError, match="eigenpair 0 residual") as info:
            solve_lowest(H, 4, tol=1e-16)
        assert eigsh_runs == []
        assert len(info.value.energies) == len(info.value.residuals) == 4


def clusters(energies, tol=1e-8):
    """Index groups of eigenvalues that agree within tol (relative)."""
    groups = [[0]]
    for j in range(1, len(energies)):
        if energies[j] - energies[j - 1] <= tol * max(1.0, abs(energies[j])):
            groups[-1].append(j)
        else:
            groups.append([j])
    return groups


def walled_box(n=40):
    # unit box with a masked (V = 1e6) square post in the middle: the
    # square's symmetry keeps degenerate pairs
    spec = box_spec(n)
    V = ScalarField(spec, np.zeros(spec.shape))
    V.mask[n // 2 - 3 : n // 2 + 3, n // 2 - 3 : n // 2 + 3] = False
    return V


class TestOracle:
    """solve_lowest against scipy's own shift-invert path (eigsh factoring
    A - sigma I internally with the default column ordering)."""

    @pytest.mark.parametrize("V, k", [
        (ho_potential(ho_spec(65, 6.0)), 6),  # E = 1, 2, 2, 3, 3, 3 clusters whole
        (walled_box(), 5),
    ], ids=["oscillator", "walls"])
    def test_matches_internal_factorisation(self, V, k):
        H = assemble(V, P)
        A = H.matrix
        sigma = float(H.potential.min()) - 1.0
        v0 = np.random.default_rng(0).standard_normal(A.shape[0])
        vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0, tol=0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        sol = solve_lowest(H, k, tol=1e-10)
        assert np.allclose(sol.energies, vals, rtol=0, atol=1e-10)
        new = np.stack([s.values.real.ravel() for s in sol.states], axis=1)
        new /= np.linalg.norm(new, axis=0)
        groups = clusters(vals)
        assert any(len(g) > 1 for g in groups)
        for g in groups:
            sv = np.linalg.svd(vecs[:, g].T @ new[:, g], compute_uv=False)
            assert sv.min() >= 1 - 1e-8


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
        with pytest.raises(ValueError, match=r"eigenstate index 9 out of range 0\.\.3"):
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
        for name, params in [("plane_wave", {"k1": np.inf}), ("plane_wave", {"k2": np.nan}),
                             ("gauss_real", {"sigma": np.inf})]:
            with pytest.raises(ValueError, match="finite"):
                builtin_state(name, params, spec, P)

    def test_overflowing_samples_are_masked_silently(self):
        # z**l overflows off the unit disc; pytest turns any RuntimeWarning
        # into an error
        spec = GridSpec(9, 9, -2.4, -2.4, 0.6, 0.6)
        psi, _ = builtin_state("ho_vortex", {"l": 100000}, spec, P)
        assert not psi.mask.all()
        assert np.isfinite(psi.values[psi.mask]).all()

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
