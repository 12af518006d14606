import warnings

import numpy as np
import pytest

from madelab.currents import (
    PhysicalParams,
    analytic_current,
    compute_currents,
    de_broglie,
    probability_current,
    qhj_residual,
    quantum_potential,
)
from madelab.grid import ComplexField, GridMismatchError, GridSpec, ScalarField, interior_mask
from madelab.madelung import decompose

P = PhysicalParams()


def grid(n=65, half=3.0):
    h = 2 * half / (n - 1)
    return GridSpec(n, n, -half, -half, h, h)


def plane_wave(spec, k1=2.0, k2=3.0):
    X, Y = spec.meshgrid()
    return decompose(ComplexField(spec, np.exp(1j * (k1 * X + k2 * Y))))


def ho_ground(spec):
    X, Y = spec.meshgrid()
    return decompose(ComplexField(spec, np.exp(-0.5 * (X**2 + Y**2)).astype(complex)))


class TestParams:
    def test_defaults(self):
        assert (P.hbar, P.mass) == (1.0, 1.0)

    @pytest.mark.parametrize("kw", [dict(hbar=0), dict(mass=-1), dict(hbar=np.nan)])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            PhysicalParams(**kw)

    def test_no_boltzmann_constant(self):
        with pytest.raises(TypeError):
            PhysicalParams(kB=1.0)


class TestPlaneWave:
    # k=(2,3): v = (hbar/m) gradI with gradI the central-difference slope
    def setup_method(self):
        self.m = plane_wave(grid())
        h = self.m.spec.dx
        self.kx = np.sin(2 * h) / h
        self.ky = np.sin(3 * h) / h

    def test_current_is_velocity_times_unit_density(self):
        J, divJ, defectC = probability_current(self.m, P)
        im = interior_mask(J.mask)
        assert np.allclose(J.vx[im], self.kx, atol=1e-12)
        assert np.max(np.abs(divJ.values[interior_mask(divJ.mask)])) < 1e-10
        assert np.max(np.abs(defectC.values[interior_mask(defectC.mask)])) < 1e-10

    def test_analytic_current_vanishes(self):
        # gradS is roundoff but e^{2I} reaches ~1e13 here: compare the
        # prefactor-free quantities, which is what the reports do too
        Jt, divJt, defectA = analytic_current(self.m, P)
        assert Jt is not None
        im = interior_mask(Jt.mask)
        scale = np.exp(-2 * self.m.I_unwrapped.values)
        assert np.max(np.hypot(scale * Jt.vx, scale * Jt.vy)[im]) < 1e-12
        # defectA = lapS here, the O(k^4 h^2) truncation constant
        da = defectA.values[interior_mask(defectA.mask)]
        assert np.max(np.abs(da)) < (2**4 + 3**4) * self.m.spec.dx**2

    def test_quantum_potential_order_h2(self):
        # truncation constant scales like k^4 h^2
        U = quantum_potential(self.m, P)
        im = interior_mask(U.mask)
        assert np.max(np.abs(U.values[im])) < (2**4 + 3**4) * self.m.spec.dx**2

    def test_qhj_residual_zero_free_particle(self):
        spec = self.m.spec
        V = ScalarField(spec, np.zeros(spec.shape))
        # discrete kinetic energy, not k^2/2: use the stencil eigenvalue
        h = spec.dx
        E = (2 - np.cos(2 * h) - np.cos(3 * h)) / h**2
        r = qhj_residual(self.m, V, E, P)
        im = interior_mask(r.mask)
        # gradI^2/2 uses sin^2 while E uses 1-cos: both k^2/2 + O(h^2)
        assert np.max(np.abs(r.values[im])) < 10 * h * h

    def test_de_broglie(self):
        lam = de_broglie(self.m, P)
        im = interior_mask(lam.mask)
        assert np.allclose(lam.values[im], 1 / np.hypot(self.kx, self.ky), atol=1e-12)

    def test_de_broglie_masks_subnormal_speed_without_warning(self):
        # a phase slope of 1e-310 gives subnormal |grad I|, whose
        # reciprocal overflows
        spec = grid(n=17)
        X, _ = spec.meshgrid()
        m = decompose(ComplexField(spec, np.exp(1e-310j * X)))
        speed = np.hypot(m.gradI.vx, m.gradI.vy)
        tiny = m.gradI.mask & (speed > 0) & (speed < np.finfo(float).tiny)
        assert tiny.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = de_broglie(m, P)
        assert not lam.mask[tiny].any()
        assert np.isnan(lam.values[tiny]).all()

    def test_grid_mismatch_rejected(self):
        other = grid(n=33)
        V = ScalarField(other, np.zeros(other.shape))
        with pytest.raises(GridMismatchError):
            qhj_residual(self.m, V, 0.0, P)


class TestHarmonicGround:
    def setup_method(self):
        self.m = ho_ground(grid(n=97, half=3.0))
        self.h = self.m.spec.dx

    def test_no_flow(self):
        g = self.m.gradI
        assert np.max(np.abs(g.vx[g.mask])) == 0.0
        J, divJ, defectC = probability_current(self.m, P)
        assert np.max(np.abs(divJ.values[divJ.mask])) == 0.0
        assert np.max(np.abs(defectC.values[defectC.mask])) == 0.0

    def test_quantum_potential_value(self):
        # U = 1 - r^2/2 exactly; check at the center
        U = quantum_potential(self.m, P)
        X, Y = self.m.spec.meshgrid()
        sel = interior_mask(U.mask) & (np.abs(X) < 1) & (np.abs(Y) < 1)
        exact = 1 - 0.5 * (X**2 + Y**2)
        assert np.max(np.abs(U.values[sel] - exact[sel])) < 10 * self.h**2

    def test_qhj_residual(self):
        spec = self.m.spec
        X, Y = spec.meshgrid()
        V = ScalarField(spec, 0.5 * (X**2 + Y**2))
        r = qhj_residual(self.m, V, 1.0, P)
        sel = interior_mask(r.mask) & (np.abs(X) < 1) & (np.abs(Y) < 1)
        assert np.max(np.abs(r.values[sel])) < 10 * self.h**2

    def test_de_broglie_masked_everywhere(self):
        lam = de_broglie(self.m, P)
        assert not lam.mask.any()

    def test_analytic_current_single_valued(self):
        # real positive state: I == 0, J~ = gradS, div J~ = lapS + |...|
        Jt, divJt, defectA = analytic_current(self.m, P)
        im = interior_mask(Jt.mask)
        assert np.allclose(Jt.vx[im], self.m.gradS.vx[im], atol=1e-12)
        X, Y = self.m.spec.meshgrid()
        sel = interior_mask(defectA.mask) & (np.abs(X) < 1) & (np.abs(Y) < 1)
        assert np.max(np.abs(defectA.values[sel] + 2.0)) < 10 * self.h**2


class TestDivergenceIdentities:
    def test_divJ_equals_prefactored_defectC(self):
        # div J and (hbar/m) e^{2S} defectC agree to O(h^2): the identity
        # is exact in the continuum, discrete product rule breaks it at h^2
        errs, hs = [], []
        for n in (33, 65, 129):
            spec = grid(n=n, half=1.0)
            X, Y = spec.meshgrid()
            psi = ComplexField(spec, np.exp(0.2 * X * Y + 1j * (np.sin(X) + Y**2)))
            m = decompose(psi)
            J, divJ, defectC = probability_current(m, P)
            pref = np.exp(2 * m.S.values) * defectC.values
            sel = interior_mask(divJ.mask & defectC.mask) & (np.abs(X) < 0.7) & (np.abs(Y) < 0.7)
            errs.append(np.max(np.abs(divJ.values - pref)[sel]))
            hs.append(spec.dx)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.7 <= order <= 2.3

    def test_divJtilde_equals_prefactored_defectA(self):
        errs, hs = [], []
        for n in (33, 65, 129):
            spec = grid(n=n, half=1.0)
            X, Y = spec.meshgrid()
            psi = ComplexField(spec, np.exp(0.2 * X * Y + 1j * (0.3 * X + 0.1 * Y)))
            m = decompose(psi)
            Jt, divJt, defectA = analytic_current(m, P)
            pref = np.exp(2 * m.I_unwrapped.values) * defectA.values
            sel = interior_mask(divJt.mask & defectA.mask) & (np.abs(X) < 0.7) & (np.abs(Y) < 0.7)
            errs.append(np.max(np.abs(divJt.values - pref)[sel]))
            hs.append(spec.dx)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.7 <= order <= 2.3


class TestGauge:
    def test_phase_shift_leaves_J_divJ_U_unchanged(self):
        spec = grid(49, half=2.0)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp(-0.3 * X**2 - 0.4 * Y**2 + 1j * np.sin(X + Y)))
        m0 = decompose(psi)
        m1 = decompose(ComplexField(spec, psi.values * np.exp(1j * 0.7)))
        c0, c1 = compute_currents(m0, P), compute_currents(m1, P)
        for a, b in [
            (c0.J.vx, c1.J.vx), (c0.J.vy, c1.J.vy),
            (c0.divJ.values, c1.divJ.values),
            (c0.defectC.values, c1.defectC.values),
            (c0.defectA.values, c1.defectA.values),
            (c0.U.values, c1.U.values),
        ]:
            sel = c0.divJ.mask & c1.divJ.mask
            assert np.allclose(a[sel], b[sel], atol=1e-10)

    def test_phase_shift_scales_Jtilde(self):
        # psi -> e^{i a} psi multiplies J~ by e^{2a}; the prefactor-free
        # combination e^{-2I} J~ is invariant
        spec = grid(49, half=2.0)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp(-0.3 * X**2 + 1j * np.sin(X + Y)))
        a = 0.7
        m0 = decompose(psi)
        m1 = decompose(ComplexField(spec, psi.values * np.exp(1j * a)))
        Jt0, _, _ = analytic_current(m0, P)
        Jt1, _, _ = analytic_current(m1, P)
        sel = Jt0.mask & Jt1.mask
        # anchor the unwrap offsets out: both differ from angle by 2 pi n
        s0 = np.exp(-2 * m0.I_unwrapped.values)
        s1 = np.exp(-2 * m1.I_unwrapped.values)
        assert np.allclose((s0 * Jt0.vx)[sel], (s1 * Jt1.vx)[sel], atol=1e-10)
        assert np.allclose((s0 * Jt0.vy)[sel], (s1 * Jt1.vy)[sel], atol=1e-10)

    def test_amplitude_scale_shifts_S_only(self):
        spec = grid(33, half=2.0)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp(-0.3 * X**2 + 1j * 0.5 * Y))
        b = 0.3
        m0 = decompose(psi)
        m1 = decompose(ComplexField(spec, psi.values * np.exp(b)))
        c0, c1 = compute_currents(m0, P), compute_currents(m1, P)
        sel = c0.divJ.mask & c1.divJ.mask
        assert np.allclose(m1.S.values[sel] - m0.S.values[sel], b, atol=1e-12)
        # J scales by e^{2b}; defects and U are invariant
        assert np.allclose(c1.J.vx[sel], np.exp(2 * b) * c0.J.vx[sel], atol=1e-10)
        assert np.allclose(c1.defectC.values[sel], c0.defectC.values[sel], atol=1e-10)
        assert np.allclose(c1.U.values[sel], c0.U.values[sel], atol=1e-10)


def test_vortex_state_jtilde_none_defectA_present():
    spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
    X, Y = spec.meshgrid()
    m = decompose(ComplexField(spec, (X + 1j * Y) * np.exp(-0.5 * (X**2 + Y**2))))
    c = compute_currents(m, P)
    assert c.Jtilde is None and c.divJtilde is None
    sel = interior_mask(c.defectA.mask) & (np.hypot(X, Y) > 0.5) & (np.hypot(X, Y) < 2.0)
    # continuum defectA = -2 for the unit vortex of the oscillator
    assert abs(np.median(c.defectA.values[sel]) + 2.0) < 0.1
