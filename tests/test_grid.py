import numpy as np
import pytest
from hypothesis import given, strategies as st

from madelab.grid import (
    ComplexField,
    GridMismatchError,
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    dot,
    gradient,
    interior_mask,
    laplacian,
    raw_gradient,
    raw_laplacian,
)


def make_field(fn, nx=33, ny=33, x0=-1.6, y0=-1.6, h=0.1):
    spec = GridSpec(nx, ny, x0, y0, h, h)
    X, Y = spec.meshgrid()
    return ScalarField(spec, fn(X, Y))


def interior(values, mask):
    return values[interior_mask(mask)]


class TestGridSpec:
    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(2, 5)

    def test_no_boundary_policy(self):
        # one-sided edge stencils are the only policy
        with pytest.raises(TypeError):
            GridSpec(8, 8, boundary="periodic")

    def test_bad_spacing_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(5, 5, dx=-0.1)

    @pytest.mark.parametrize("kw", [{"x0": np.nan}, {"y0": -np.inf}, {"dx": np.inf},
                                    {"dy": np.nan}, {"x0": 1e308, "dx": 1e308}])
    def test_non_finite_geometry_rejected(self, kw):
        # the far edge x0 + (nx-1)*dx must be finite too
        with pytest.raises(ValueError):
            GridSpec(5, 5, **kw)

    @pytest.mark.parametrize("kw", [{"dx": 1e-300}, {"dy": 1e-160}, {"dx": 1e200},
                                    {"dy": 1e155}])
    def test_spacing_squared_and_inverse_must_be_finite(self, kw):
        # the Laplacian divides by d*d: 1e-300 would divide by zero, 1e-160
        # by a subnormal (1/d^2 = inf), and 1e200 would make every Laplacian
        # silently zero
        with pytest.raises(ValueError, match="d\\^2 and 1/d\\^2 finite"):
            GridSpec(5, 5, **kw)

    def test_coordinates(self):
        spec = GridSpec(4, 3, x0=1.0, y0=2.0, dx=0.5, dy=0.25)
        assert np.allclose(spec.x(), [1.0, 1.5, 2.0, 2.5])
        assert np.allclose(spec.y(), [2.0, 2.25, 2.5])


class TestFieldMasks:
    def test_non_finite_cells_are_never_valid(self):
        spec = GridSpec(3, 4)
        zero = np.zeros(spec.shape)
        bad = zero.copy()
        bad[0, 0], bad[1, 1], bad[2, 2] = np.nan, np.inf, -np.inf
        given = np.ones(spec.shape, dtype=bool)
        given[0, 2] = False
        want = given & np.isfinite(bad)
        imag_bad = np.zeros(spec.shape, dtype=complex)
        imag_bad.imag = bad
        for field in (
            ScalarField(spec, bad, given),
            VectorField(spec, bad, zero, given),
            VectorField(spec, zero, bad, given),
            ComplexField(spec, bad + 0j, given),
            ComplexField(spec, imag_bad, given),
        ):
            assert np.array_equal(field.mask, want)
        assert given[0, 0] and not given[0, 2]  # the caller's mask is not written
        assert ScalarField(spec, zero).mask.all()

    def test_invalid_cells_hold_nan(self):
        # a mask= argument sets the cells it excludes to NaN in a copy, in
        # both parts of a complex value and in both vector components
        spec = GridSpec(3, 4)
        ones = np.ones(spec.shape)
        excluded = np.ones(spec.shape, dtype=bool)
        excluded[1, 2] = False
        vy = ones.copy()
        vy[3, 0] = np.inf
        s = ScalarField(spec, ones, excluded)
        v = VectorField(spec, ones, vy, excluded)
        c = ComplexField(spec, ones + 1j, excluded)
        assert np.isnan(s.values[1, 2]) and (ones == 1).all()
        assert np.isnan(c.values[1, 2].real) and np.isnan(c.values[1, 2].imag)
        for component in (v.vx, v.vy):
            assert np.array_equal(ScalarField(spec, component).mask, v.mask)
        assert np.isnan(v.vx[[1, 3], [2, 0]]).all()

    @pytest.mark.parametrize("values_shape,mask_shape", [((4, 4), (4, 3)), ((4, 3), (3, 4))])
    def test_shape_must_match_grid(self, values_shape, mask_shape):
        spec = GridSpec(3, 4)
        with pytest.raises(ValueError, match="does not match grid"):
            ScalarField(spec, np.zeros(values_shape), np.ones(mask_shape, dtype=bool))
        with pytest.raises(ValueError, match="does not match grid"):
            ComplexField(spec, np.zeros(values_shape), np.ones(mask_shape, dtype=bool))


class TestGradient:
    def test_linear_exact(self):
        f = make_field(lambda x, y: x)
        g = gradient(f)
        assert np.allclose(g.vx, 1.0, atol=1e-13)
        assert np.allclose(g.vy, 0.0, atol=1e-13)
        assert g.mask.all()

    def test_constant(self):
        f = make_field(lambda x, y: 0 * x + 3.7)
        g = gradient(f)
        assert np.allclose(g.vx, 0.0, atol=1e-13)
        assert np.allclose(g.vy, 0.0, atol=1e-13)

    def test_quadratic_exact(self):
        # central differences are exact on quadratics
        f = make_field(lambda x, y: x**2 + y**2, h=0.1)
        g = gradient(f)
        X, Y = f.spec.meshgrid()
        m = interior_mask(g.mask)
        assert np.allclose(g.vx[m], 2 * X[m], atol=1e-12)
        assert np.allclose(g.vy[m], 2 * Y[m], atol=1e-12)


class TestLaplacian:
    def test_quadratic(self):
        f = make_field(lambda x, y: x**2 + y**2)
        lap = laplacian(f)
        assert np.allclose(lap.values, 4.0, atol=1e-10)

    def test_linear(self):
        f = make_field(lambda x, y: x)
        lap = laplacian(f)
        assert np.allclose(lap.values, 0.0, atol=1e-10)

    def test_harmonic_log_converges_at_order_two(self):
        # ln(r) is harmonic away from the origin; grid placed to avoid it.
        # Error measured over a fixed window so the sample region does not
        # drift with the (h-dependent) interior margin.
        errs = []
        hs = []
        for n in (33, 65, 129):
            spec = GridSpec(n, n, 1.0, 1.0, 2.0 / (n - 1), 2.0 / (n - 1))
            X, Y = spec.meshgrid()
            f = ScalarField(spec, 0.5 * np.log(X**2 + Y**2))
            lap = laplacian(f)
            m = interior_mask(lap.mask) & (X > 1.3) & (X < 2.7) & (Y > 1.3) & (Y < 2.7)
            errs.append(np.max(np.abs(lap.values[m])))
            hs.append(spec.dx)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2


class TestDivergence:
    def test_identity_field(self):
        spec = GridSpec(21, 21, -1, -1, 0.1, 0.1)
        X, Y = spec.meshgrid()
        w = VectorField(spec, X, Y)
        d = divergence(w)
        assert np.allclose(d.values, 2.0, atol=1e-12)

    def test_rotation_field(self):
        spec = GridSpec(21, 21, -1, -1, 0.1, 0.1)
        X, Y = spec.meshgrid()
        d = divergence(VectorField(spec, -Y, X))
        assert np.allclose(d.values, 0.0, atol=1e-12)

    def test_quadratic_exact(self):
        spec = GridSpec(21, 21, -1, -1, 0.1, 0.1)
        X, Y = spec.meshgrid()
        d = divergence(VectorField(spec, X**2, 0 * Y))
        m = interior_mask(d.mask)
        assert np.allclose(d.values[m], 2 * X[m], atol=1e-12)


class TestDot:
    def test_orthogonal(self):
        spec = GridSpec(11, 11)
        one = np.ones(spec.shape)
        zero = np.zeros(spec.shape)
        d = dot(VectorField(spec, one, zero), VectorField(spec, zero, one))
        assert np.allclose(d.values, 0.0)

    def test_self_dot(self):
        spec = GridSpec(11, 11)
        X, Y = spec.meshgrid()
        d = dot(VectorField(spec, X, Y), VectorField(spec, X, Y))
        assert np.allclose(d.values, X**2 + Y**2)

    def test_gradients_of_separable_squares(self):
        f = make_field(lambda x, y: x**2)
        g = make_field(lambda x, y: y**2)
        d = dot(gradient(f), gradient(g))
        assert np.allclose(d.values, 0.0, atol=1e-12)

    def test_spec_mismatch(self):
        a = VectorField(GridSpec(5, 5), np.zeros((5, 5)), np.zeros((5, 5)))
        b = VectorField(GridSpec(6, 6), np.zeros((6, 6)), np.zeros((6, 6)))
        with pytest.raises(GridMismatchError):
            dot(a, b)


class TestConvergenceOrder:
    @pytest.mark.parametrize("fn,dfx,dfy,lap", [
        (lambda x, y: np.sin(x) * np.sin(y),
         lambda x, y: np.cos(x) * np.sin(y),
         lambda x, y: np.sin(x) * np.cos(y),
         lambda x, y: -2 * np.sin(x) * np.sin(y)),
        (lambda x, y: np.exp(x - y),
         lambda x, y: np.exp(x - y),
         lambda x, y: -np.exp(x - y),
         lambda x, y: 2 * np.exp(x - y)),
    ])
    def test_gradient_and_laplacian_order_two(self, fn, dfx, dfy, lap):
        errs_g, errs_l, hs = [], [], []
        for n in (17, 33, 65):
            h = 2.0 / (n - 1)
            spec = GridSpec(n, n, -1, -1, h, h)
            X, Y = spec.meshgrid()
            f = ScalarField(spec, fn(X, Y))
            g = gradient(f)
            L = laplacian(f)
            # fixed window: the interior margin shrinks with h and would
            # otherwise drift the location of the max error
            m = interior_mask(g.mask) & (np.abs(X) < 0.7) & (np.abs(Y) < 0.7)
            errs_g.append(max(
                np.max(np.abs(g.vx[m] - dfx(X, Y)[m])),
                np.max(np.abs(g.vy[m] - dfy(X, Y)[m])),
            ))
            errs_l.append(np.max(np.abs(L.values[m] - lap(X, Y)[m])))
            hs.append(h)
        for errs in (errs_g, errs_l):
            order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert 1.8 <= order <= 2.2, f"measured order {order}"


class TestMasks:
    def test_erosion_is_monotone(self):
        rng = np.random.default_rng(7)
        spec = GridSpec(20, 20, 0, 0, 0.1, 0.1)
        mask = rng.random(spec.shape) > 0.2
        f = ScalarField(spec, rng.standard_normal(spec.shape), mask)
        for out in (gradient(f).mask, laplacian(f).mask):
            assert not np.any(out & ~f.mask)

    def test_masked_region_erodes_neighbors(self):
        spec = GridSpec(11, 11, 0, 0, 0.1, 0.1)
        mask = np.ones(spec.shape, dtype=bool)
        mask[5, 5] = False
        g = gradient(ScalarField(spec, np.ones(spec.shape), mask))
        assert not g.mask[5, 5]
        assert not g.mask[5, 4] and not g.mask[5, 6]
        assert not g.mask[4, 5] and not g.mask[6, 5]
        assert g.mask[3, 3]

    @pytest.mark.parametrize("nx, ny", [(3, 3), (3, 8), (8, 3)])
    def test_three_cell_axis_masks_one_sided_rows(self, nx, ny):
        # the one-sided second-derivative stencil needs 4 cells; on a
        # 3-cell axis only the centre row along that axis is defined
        f = make_field(lambda x, y: x**2 + 3 * y**2, nx=nx, ny=ny)
        lap = laplacian(f)
        want = np.ones(f.spec.shape, dtype=bool)
        if nx == 3:
            want[:, [0, 2]] = False
        if ny == 3:
            want[[0, 2], :] = False
        assert np.array_equal(lap.mask, want)
        assert np.allclose(lap.values[want], 8.0, atol=1e-9)


def test_gradient_linearity():
    rng = np.random.default_rng(11)
    spec = GridSpec(17, 17, -1, -1, 0.125, 0.125)
    f = ScalarField(spec, rng.standard_normal(spec.shape))
    g = ScalarField(spec, rng.standard_normal(spec.shape))
    a, b = 1.7, -0.4
    combo = gradient(ScalarField(spec, a * f.values + b * g.values))
    gf, gg = gradient(f), gradient(g)
    assert np.allclose(combo.vx, a * gf.vx + b * gg.vx, atol=1e-12)
    assert np.allclose(combo.vy, a * gf.vy + b * gg.vy, atol=1e-12)


# --- reference: the erosion masks the stencils kept before validity became
# finiteness. A stencil output was valid where `_erode` said every cell it
# reads is valid, and the output value is finite.

def _old_deriv1(values, d, axis):
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * d)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * d)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * d)
    return np.moveaxis(out, 0, axis)


def _old_deriv2(values, d, axis):
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    inv = 1.0 / (d * d)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) * inv
    if len(f) < 4:
        out[0] = out[-1] = f[0] * np.nan
    else:
        out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) * inv
        out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) * inv
    return np.moveaxis(out, 0, axis)


def _erode(mask, axis, reach):
    m = np.moveaxis(mask, axis, 0)
    out = np.empty_like(m)
    out[1:-1] = m[:-2] & m[1:-1] & m[2:]
    if len(m) < reach:
        out[0] = out[-1] = False
    else:
        out[0] = np.logical_and.reduce(m[:reach])
        out[-1] = np.logical_and.reduce(m[-reach:])
    return np.moveaxis(out, 0, axis)


def _eroded(mask, reach):
    return _erode(mask, 1, reach) & _erode(mask, 0, reach)


def _awkward(rng, shape):
    """Doubles over a wide exponent range (so stencils can overflow), with
    NaN and +-inf sprinkled in, and a random mask."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 308, shape)
    pick = rng.random(shape) < 0.1
    values[pick] = rng.choice([np.nan, np.inf, -np.inf], int(pick.sum()))
    return values, rng.random(shape) > 0.2


def _assert_same(field_mask, field_values, want_mask, want_values):
    assert np.array_equal(field_mask, want_mask)
    for got, want in zip(field_values, want_values):
        assert np.array_equal(got.view(np.uint64)[want_mask], want.view(np.uint64)[want_mask])
        assert np.isnan(got[~want_mask]).all()


@given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_stencil_masks_match_erosion_oracle(nx, ny, seed, dx, dy):
    rng = np.random.default_rng(seed)
    spec = GridSpec(nx, ny, -1.0, -1.0, dx, dy)
    (a, ma), (b, mb), (c, mc) = (_awkward(rng, spec.shape) for _ in range(3))
    with np.errstate(all="ignore"):
        f = ScalarField(spec, a, ma)
        v = VectorField(spec, b, c, mb)
        w = VectorField(spec, c, a, mc)
        grad, lap, div, vw = gradient(f), laplacian(f), divergence(v), dot(v, w)

        fm, vm, wm = ma & np.isfinite(a), mb & np.isfinite(b) & np.isfinite(c), \
            mc & np.isfinite(c) & np.isfinite(a)
        gx, gy = _old_deriv1(a, dx, 1), _old_deriv1(a, dy, 0)
        old_lap = _old_deriv2(a, dx, 1) + _old_deriv2(a, dy, 0)
        old_div = _old_deriv1(b, dx, 1) + _old_deriv1(c, dy, 0)
        old_dot = b * c + c * a
    _assert_same(grad.mask, (grad.vx, grad.vy),
                 _eroded(fm, 3) & np.isfinite(gx) & np.isfinite(gy), (gx, gy))
    _assert_same(lap.mask, (lap.values,), _eroded(fm, 4) & np.isfinite(old_lap), (old_lap,))
    _assert_same(div.mask, (div.values,), _eroded(vm, 3) & np.isfinite(old_div), (old_div,))
    _assert_same(vw.mask, (vw.values,), vm & wm & np.isfinite(old_dot), (old_dot,))


@given(st.integers(3, 40), st.integers(3, 40), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_complex_stencils_match_reference(nx, ny, seed, dx, dy):
    """The stencils `decompose` applies to psi, on complex arrays with NaN
    and +-inf parts: every bit of both parts, NaN cells included, as the
    reference's whole-array expressions give them."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(nx, ny, -1.0, -1.0, dx, dy)
    z = np.empty(spec.shape, dtype=complex)
    z.real, z.imag = _awkward(rng, spec.shape)[0], _awkward(rng, spec.shape)[0]
    with np.errstate(all="ignore"):
        got = (*raw_gradient(z, spec), raw_laplacian(z, spec))
        want = (_old_deriv1(z, dx, 1), _old_deriv1(z, dy, 0),
                _old_deriv2(z, dx, 1) + _old_deriv2(z, dy, 0))
    bad = ~np.isfinite(z)
    for g in want[:2]:
        g[bad] = z[bad]  # the first derivative copies a non-finite cell through
    for g, w in zip(got, want):
        g, w = g.view(float), w.view(float)  # real and imaginary parts side by side
        same = g.view(np.uint64) == w.view(np.uint64)
        if min(nx, ny) == 3:
            # a one-cell interior slice can take another ufunc loop, which may
            # keep the other operand's NaN sign; fields reset every NaN anyway
            same |= np.isnan(g) & np.isnan(w)
        assert same.all()
