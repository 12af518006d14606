import gc
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from madelab import madelung
from madelab.analytic import analyze, norm_table
from madelab.catalog import builtin_state
from madelab.currents import PhysicalParams, compute_currents
from madelab.grid import ComplexField, GridSpec, ScalarField, interior_mask
from madelab.madelung import (
    DecomposeError,
    PhaseDifferences,
    VortexError,
    _row_runs,
    _turns,
    decompose,
    hole_charges,
    phase_differences,
    residues,
    unwrap_phase,
)


def mod_wrap(d):
    """Reference wrap into [-pi, pi] for any d, through np.mod, odd at the
    boundary: -pi where pi - d is exactly 2 pi, so mod_wrap(-pi) = -pi."""
    x = np.pi - d
    return np.where(x == 2 * np.pi, -np.pi, np.pi - np.mod(x, 2 * np.pi))


def angle(values):
    """Reference phase in (-pi, pi]: a -0 imaginary part reads as +0."""
    return np.arctan2(values.imag + 0.0, values.real)


def step(theta, a, b):
    """The wrapped phase step from cell a to its 4-neighbour b: the edge's
    one difference, taken from its lower cell, or minus it the other way."""
    if a < b:
        return float(mod_wrap(theta[b] - theta[a]))
    return -float(mod_wrap(theta[a] - theta[b]))


def loop_winding(psi, j0, j1, i0, i1):
    """Total phase winding around the rectangle of cells [j0..j1] x [i0..i1],
    counterclockwise along its boundary cells, which must all be valid. By
    residue additivity this equals the sum of the enclosed residues."""
    theta = angle(psi.values)
    path = (
        [(j0, i) for i in range(i0, i1 + 1)]
        + [(j, i1) for j in range(j0 + 1, j1 + 1)]
        + [(j1, i) for i in range(i1 - 1, i0 - 1, -1)]
        + [(j, i0) for j in range(j1 - 1, j0 - 1, -1)]
    )
    assert all(psi.mask[c] for c in path)
    total = sum(step(theta, a, b) for a, b in zip(path, path[1:] + path[:1]))
    return int(np.rint(total / (2 * np.pi)))


def bfs_unwrap(psi):
    """Reference for unwrap_phase on a fully valid rectangle: the
    cell-by-cell FIFO flood fill, whose tree there is the run tree's comb.
    Like `run_tree_unwrap`, it raises VortexError with the winding
    plaquettes, or with no plaquettes and the tears (edges off the tree
    where I jumps by 2 pi n) in place of holes."""
    winding, ok = residues(psi)
    if np.any(winding != 0):
        js, iis = np.nonzero(winding != 0)
        raise VortexError((int(j), int(i), int(winding[j, i])) for j, i in zip(js, iis))

    theta = angle(psi.values)
    valid = psi.mask
    if not valid.any():
        raise DecomposeError("no valid cells to unwrap")
    amp = np.abs(psi.values)
    amp[~valid] = -1.0
    anchor = np.unravel_index(int(np.argmax(amp)), amp.shape)

    ny, nx = psi.spec.shape
    I = np.full((ny, nx), np.nan)
    done = np.zeros((ny, nx), dtype=bool)
    I[anchor] = theta[anchor]
    done[anchor] = True
    queue = deque([anchor])
    while queue:
        j, i = queue.popleft()
        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nj, ni = j + dj, i + di
            if 0 <= nj < ny and 0 <= ni < nx and valid[nj, ni] and not done[nj, ni]:
                I[nj, ni] = I[j, i] + step(theta, (j, i), (nj, ni))
                done[nj, ni] = True
                queue.append((nj, ni))

    tears = []
    for axis in (0, 1):
        a = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
        b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
        both = done[a] & done[b]
        jump = I[b] - I[a] - mod_wrap(theta[b] - theta[a])
        bad = both & (np.abs(jump) > np.pi)
        for j, i in zip(*np.nonzero(bad)):
            tears.append((int(j), int(i), int(np.rint(jump[j, i] / (2 * np.pi)))))
    if tears:
        raise VortexError([], tears)
    return ScalarField(psi.spec, I, done)


def run_tree_unwrap(psi):
    """Reference for unwrap_phase on any mask: the run tree, built and
    walked one cell at a time, then a scan of every edge for tears."""
    winding, _ = residues(psi)
    if np.any(winding != 0):
        js, iis = np.nonzero(winding != 0)
        raise VortexError((int(j), int(i), int(winding[j, i])) for j, i in zip(js, iis))

    theta = angle(psi.values)
    valid = psi.mask
    if not valid.any():
        raise DecomposeError("no valid cells to unwrap")
    amp = np.abs(psi.values)
    ny, nx = psi.spec.shape

    runs, run_of = [], {}
    for j in range(ny):
        for i in range(nx):
            if valid[j, i]:
                if i == 0 or not valid[j, i - 1]:
                    runs.append([])
                runs[-1].append((j, i))
                run_of[j, i] = len(runs) - 1

    I = np.full((ny, nx), np.nan)

    def walk(run, start, value):
        cells = runs[run]
        k = cells.index(start)
        I[start] = value
        for q in range(k, len(cells) - 1):
            I[cells[q + 1]] = I[cells[q]] + step(theta, cells[q], cells[q + 1])
        for q in range(k, 0, -1):
            I[cells[q - 1]] = I[cells[q]] + step(theta, cells[q], cells[q - 1])

    reached = set()
    # each component starts from its largest |psi|, the first cell on a tie
    for anchor in sorted(run_of, key=lambda c: (-amp[c], c)):
        if run_of[anchor] in reached:
            continue
        reached.add(run_of[anchor])
        walk(run_of[anchor], anchor, theta[anchor])
        level = [run_of[anchor]]
        while level:
            best = {}  # run -> (key, parent cell, entry cell)
            for run in level:
                for j, i in runs[run]:
                    for dj in (1, -1):
                        kid = run_of.get((j + dj, i))
                        if kid is None or kid in reached:
                            continue
                        # nearest the anchor's column, then from below, then leftmost
                        key = (abs(i - anchor[1]), dj == -1, i)
                        if kid not in best or key < best[kid][0]:
                            best[kid] = (key, (j, i), (j + dj, i))
            for kid, (_, src, dst) in best.items():
                reached.add(kid)
                walk(kid, dst, I[src] + step(theta, src, dst))
            level = list(best)

    tears = []
    for dj, di in ((1, 0), (0, 1)):
        for j in range(ny - dj):
            for i in range(nx - di):
                a, b = (j, i), (j + dj, i + di)
                if valid[a] and valid[b]:
                    jump = I[b] - I[a] - step(theta, a, b)
                    if abs(jump) > np.pi:
                        tears.append((j, i, int(np.rint(jump / (2 * np.pi)))))
    if tears:
        raise VortexError([], tears)
    return ScalarField(psi.spec, I)


def components(valid):
    """The 4-connected components of the valid cells, as lists of cells."""
    seen, out = set(), []
    for start in zip(*np.nonzero(valid)):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            j, i = stack.pop()
            comp.append((j, i))
            for nb in ((j + 1, i), (j - 1, i), (j, i + 1), (j, i - 1)):
                if (0 <= nb[0] < valid.shape[0] and 0 <= nb[1] < valid.shape[1]
                        and valid[nb] and nb not in seen):
                    seen.add(nb)
                    stack.append(nb)
        out.append(comp)
    return out


def grid(n=65, half=3.0):
    h = 2 * half / (n - 1)
    return GridSpec(n, n, -half, -half, h, h)


def plane_wave(spec, k1=2.0, k2=3.0):
    X, Y = spec.meshgrid()
    return ComplexField(spec, np.exp(1j * (k1 * X + k2 * Y)))


def gaussian(spec):
    X, Y = spec.meshgrid()
    return ComplexField(spec, np.exp(-0.5 * (X**2 + Y**2)).astype(complex))


def vortex(spec):
    X, Y = spec.meshgrid()
    return ComplexField(spec, (X + 1j * Y) * np.exp(-0.5 * (X**2 + Y**2)))


class TestDecompose:
    def test_plane_wave(self):
        m = decompose(plane_wave(grid()))
        im = interior_mask(m.gradI.mask)
        # linear phase: central differences give sin(k h)/h, constant
        spec = m.spec
        kx = np.sin(2 * spec.dx) / spec.dx
        ky = np.sin(3 * spec.dy) / spec.dy
        assert np.allclose(m.gradI.vx[im], kx, atol=1e-12)
        assert np.allclose(m.gradI.vy[im], ky, atol=1e-12)
        assert np.max(np.abs(m.gradS.vx[im])) < 1e-12
        # discrete lapS = Re(lap psi/psi) + |gradI|^2: constant, O(h^2) from 0
        lapS_exact = (
            2 * (np.cos(2 * spec.dx) - 1) / spec.dx**2 + kx**2
            + 2 * (np.cos(3 * spec.dy) - 1) / spec.dy**2 + ky**2
        )
        im2 = interior_mask(m.lapS.mask)
        assert np.allclose(m.lapS.values[im2], lapS_exact, atol=1e-10)
        assert np.max(np.abs(m.lapI.values[interior_mask(m.lapI.mask)])) < 1e-10

    def test_gaussian_quadratic_exact(self):
        m = decompose(gaussian(grid(n=61)))
        X, Y = m.spec.meshgrid()
        im = interior_mask(m.gradS.mask)
        # S = -r^2/2 but gradS comes from grad(psi)/psi, giving
        # -sinh(x h)/h exactly; compare against that closed form
        h = m.spec.dx
        assert np.allclose(
            m.gradS.vx[im], -np.exp(-h * h / 2) * np.sinh(X[im] * h) / h, atol=1e-12
        )
        assert np.max(np.abs(m.gradI.vx[im])) == 0.0
        # lapS is within O(h^2) of -2 near the origin (FD error grows ~x^4)
        win = im & (np.abs(X) < 1.0) & (np.abs(Y) < 1.0)
        assert np.max(np.abs(m.lapS.values[win] + 2.0)) < 10 * h * h

    def test_uniform_state(self):
        spec = grid(n=17)
        m = decompose(ComplexField(spec, np.ones(spec.shape, dtype=complex)))
        assert np.allclose(m.S.values, 0.0)
        for arr in (m.gradS.vx, m.gradS.vy, m.gradI.vx, m.gradI.vy,
                    m.lapS.values[m.lapS.mask], m.lapI.values[m.lapI.mask]):
            assert np.max(np.abs(arr)) < 1e-13

    def test_node_threshold_bounds(self):
        psi = gaussian(grid(17))
        with pytest.raises(ValueError):
            decompose(psi, node_threshold=0.0)
        with pytest.raises(ValueError):
            decompose(psi, node_threshold=1.5)

    def test_too_few_cells_fails(self):
        spec = GridSpec(5, 5, -2, -2, 1, 1)
        psi = ComplexField(spec, np.full(spec.shape, np.nan, dtype=complex))
        psi.values[2, 2] = 1.0
        with pytest.raises(DecomposeError):
            decompose(ComplexField(spec, psi.values))

    def test_too_few_cells_names_node_masking(self):
        spec = GridSpec(17, 17, -2, -2, 0.25, 0.25)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp(-8.0 * (X**2 + Y**2)) + 0j)
        with pytest.raises(DecomposeError, match=r"^only \d valid cells remain after "
                           "masking nodes and non-finite cells;"):
            decompose(psi, node_threshold=0.9)

    def test_too_few_cells_names_stencil_erosion(self):
        # a 3x3 grid without nodes: all 9 cells are valid, the stencils
        # leave only the centre
        spec = GridSpec(3, 3, -1, -1, 1, 1)
        X, Y = spec.meshgrid()
        with pytest.raises(DecomposeError, match="^only 1 valid cells remain after "
                           "stencil erosion of 9 valid cells;"):
            decompose(ComplexField(spec, np.exp(X + 1j * Y)))

    def test_no_cell_two_rings_in_fails(self):
        # a 4x4 grid has a valid Laplacian everywhere, but no cell two rings
        # deep, where the norms are taken
        spec = GridSpec(4, 4, -1, -1, 0.3, 0.3)
        X, Y = spec.meshgrid()
        with pytest.raises(DecomposeError, match="^none of the 16 cells with a valid "
                           "Laplacian lies two rings in from the grid boundary;"):
            decompose(ComplexField(spec, np.exp(X + 1j * Y)))

    def test_consistency_identity(self):
        # lapI + 2 gradS.gradI reproduces Im(lap psi / psi), recomputed here
        from madelab.grid import raw_laplacian

        psi = vortex(grid(41))
        m = decompose(psi)
        lap = raw_laplacian(psi.values, psi.spec)
        with np.errstate(invalid="ignore", divide="ignore"):
            rhs = (lap / psi.values).imag
        lhs = m.lapI.values + 2 * (
            m.gradS.vx * m.gradI.vx + m.gradS.vy * m.gradI.vy
        )
        sel = m.lapI.mask & np.isfinite(lap)
        assert np.allclose(lhs[sel], rhs[sel], atol=1e-9)

    def test_round_trip_order_two(self):
        # psi from closed-form S0, I0; derivative recovery is O(h^2)
        errs, hs = [], []
        for n in (33, 65, 129):
            spec = grid(n=n, half=1.0)
            X, Y = spec.meshgrid()
            S0 = 0.2 * X * Y
            I0 = np.sin(X) + 0.5 * Y**2
            psi = ComplexField(spec, np.exp(S0 + 1j * I0))
            m = decompose(psi)
            im = interior_mask(m.lapS.mask) & (np.abs(X) < 0.7) & (np.abs(Y) < 0.7)
            err = max(
                np.max(np.abs(m.gradS.vx - 0.2 * Y)[im]),
                np.max(np.abs(m.gradI.vx - np.cos(X))[im]),
                np.max(np.abs(m.lapS.values - 0.0)[im]),
                np.max(np.abs(m.lapI.values - (-np.sin(X) + 1.0))[im]),
            )
            errs.append(err)
            hs.append(spec.dx)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= order <= 2.2

    def test_gauge_covariance(self):
        psi = vortex(grid(41))
        m0 = decompose(psi)
        alpha = 0.7
        m1 = decompose(ComplexField(psi.spec, psi.values * np.exp(1j * alpha)))
        for a, b in [
            (m0.S.values, m1.S.values),
            (m0.gradS.vx, m1.gradS.vx),
            (m0.gradI.vx, m1.gradI.vx),
            (m0.lapS.values, m1.lapS.values),
            (m0.lapI.values, m1.lapI.values),
        ]:
            sel = m0.lapS.mask & m1.lapS.mask
            assert np.allclose(a[sel], b[sel], atol=1e-9)

    def test_gauge_shifts_unwrapped_phase(self):
        psi = plane_wave(grid(33), 0.5, 0.2)
        alpha = 0.7
        m0 = decompose(psi)
        m1 = decompose(ComplexField(psi.spec, psi.values * np.exp(1j * alpha)))
        d = m1.I_unwrapped.values - m0.I_unwrapped.values
        d = np.mod(d - alpha + np.pi, 2 * np.pi) - np.pi
        assert np.max(np.abs(d[m0.I_unwrapped.mask & m1.I_unwrapped.mask])) < 1e-9


class TestResidues:
    def test_smooth_phase_no_winding(self):
        w, ok = residues(plane_wave(grid(33)))
        assert ok.all()
        assert not w.any()

    def test_single_vortex(self):
        # even cell count => no grid point at the origin
        spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
        w, ok = residues(vortex(spec))
        assert w.sum() == 1
        js, iis = np.nonzero(w)
        x, y = spec.x(), spec.y()
        assert x[iis[0]] < 0 < x[iis[0] + 1]
        assert y[js[0]] < 0 < y[js[0] + 1]

    def test_real_positive_state(self):
        w, ok = residues(gaussian(grid(21)))
        assert not w.any()

    def test_masked_plaquettes_indeterminate(self):
        psi = plane_wave(grid(21))
        psi.mask[10, 10] = False
        w, ok = residues(psi)
        assert not ok[9:11, 9:11].all()

    def test_residue_additivity(self):
        spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
        psi = vortex(spec)
        w, ok = residues(psi)
        total = loop_winding(psi, 5, 34, 5, 34)
        assert total == int(w[5:34, 5:34].sum())


def test_turns_count_the_wrap_of_angle_differences():
    # _turns counts the turns of the np.mod form on |d| <= 2 pi outside its
    # band at +-pi, on every pair of edge-case angles, and random angles as
    # np.angle returns them, including differences of exactly +-pi and +-2 pi
    edge = np.array([np.pi, -np.pi, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                     np.nextafter(np.pi, 0), np.nextafter(-np.pi, 0), np.pi / 2, -np.pi / 2])
    rng = np.random.default_rng(0)
    theta = np.angle(rng.normal(size=400_000) + 1j * rng.normal(size=400_000))
    a = np.concatenate([np.repeat(edge, edge.size), theta[::2], theta[::2]])
    b = np.concatenate([np.tile(edge, edge.size), theta[1::2], np.nextafter(theta[::2], 4)])
    band = 2 * np.spacing(np.pi)
    for d in (a - b, b - a):
        s = _turns(d)
        assert s.dtype == np.int8
        # odd: a step the other way counts the opposite turns
        assert np.array_equal(_turns(-d), -s)
        out = np.abs(np.abs(d) - np.pi) > band
        assert np.array_equal(s[out], np.rint((mod_wrap(d) - d) / (2 * np.pi))[out])
    # a step within the band, 2 ulp of +-pi, counts no turn; one beyond wraps
    near = np.pi + np.spacing(np.pi) * np.arange(-4, 5)
    for d in (near, -near):
        assert np.array_equal(_turns(d) == 0, np.abs(d) <= np.pi + band)


class TestUnwrap:
    def test_plane_wave_unwraps_to_linear_phase(self):
        spec = grid(65)
        psi = plane_wave(spec)
        I = unwrap_phase(psi)
        X, Y = spec.meshgrid()
        target = 2 * X + 3 * Y
        offset = I.values[32, 32] - target[32, 32]
        assert np.max(np.abs(I.values - target - offset)) < 1e-9

    def test_constant_phase(self):
        spec = grid(17)
        theta0 = 1.234
        psi = ComplexField(spec, np.full(spec.shape, np.exp(1j * theta0)))
        I = unwrap_phase(psi)
        assert np.allclose(I.values, theta0)

    def test_vortex_raises(self):
        spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
        with pytest.raises(VortexError) as err:
            unwrap_phase(vortex(spec))
        assert len(err.value.plaquettes) >= 1

    def test_masked_core_vortex_still_detected(self):
        # a grid point sits exactly on the vortex core; masking it hides
        # the winding from every plaquette, but unwrapping must still fail
        spec = GridSpec(41, 41, -4.0, -4.0, 0.2, 0.2)
        psi = vortex(spec)
        psi.mask[20, 20] = False
        w, _ = residues(psi)
        assert not w.any()
        with pytest.raises(VortexError) as err:
            unwrap_phase(psi)
        assert err.value.plaquettes == [] and err.value.holes == [(20, 20, 1)]

    def test_matches_phase_modulo_two_pi(self):
        spec = grid(33)
        X, Y = spec.meshgrid()
        psi = ComplexField(spec, np.exp(0.1 * X + 1j * (3 * X - 2 * Y + np.sin(Y))))
        I = unwrap_phase(psi)
        d = np.angle(np.exp(1j * (I.values - np.angle(psi.values))))
        assert np.max(np.abs(d[I.mask])) < 1e-9


def test_decompose_records_vortex_without_raising():
    spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
    X, Y = spec.meshgrid()
    m = decompose(ComplexField(spec, (X + 1j * Y) * np.exp(-0.5 * (X**2 + Y**2))))
    assert m.I_unwrapped is None
    assert m.vortex_plaquettes() == [(19, 19, 1)]


class TestDecomposeTears:
    """Vortices whose core hides in masked cells, where I would tear."""

    def test_winding_phase_is_never_unwrapped(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("unwrap_phase called on a winding phase")

        monkeypatch.setattr(madelung, "unwrap_phase", fail)
        m = decompose(vortex(GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)))
        assert m.I_unwrapped is None and m.holes == []
        assert m.vortex_plaquettes() == [(19, 19, 1)]

    def test_charged_hole_is_never_unwrapped(self, monkeypatch):
        # the core sits on a grid point, which the default threshold masks:
        # a one-cell hole of charge 1, found before any unwrap
        def fail(*args, **kwargs):
            raise AssertionError("unwrap_phase called on a charged hole")

        monkeypatch.setattr(madelung, "unwrap_phase", fail)
        m = decompose(vortex(GridSpec(41, 41, -4.0, -4.0, 0.2, 0.2)))
        assert m.I_unwrapped is None and m.vortex_plaquettes() == []
        assert m.holes == [(20, 20, 1)]

    def test_hidden_core_holes_are_the_unwrap_error(self):
        # the core cell and its ring fall under the node threshold, so no
        # plaquette winds and only the hole round them carries the charge
        spec = GridSpec(65, 65, -4.0, -4.0, 0.125, 0.125)
        psi, _ = builtin_state("ho_vortex", {"l": 1}, spec, PhysicalParams())
        m = decompose(psi, node_threshold=0.3)
        with pytest.raises(VortexError) as err:
            unwrap_phase(ComplexField(spec, psi.values, psi.mask & ~m.node_mask))
        assert m.vortex_plaquettes() == [] == err.value.plaquettes
        assert m.I_unwrapped is None
        assert m.holes == err.value.holes == [(31, 31, 1)]

    def test_decompose_holds_only_its_fields(self):
        # the fields decompose returns for a 256^2 state take ~5 MB; an
        # exception kept with its traceback pinned every temporary array
        # of decompose's frame as well (~11 MB in all)
        spec = GridSpec(256, 256, -4 + 8 / 257, -4 + 8 / 257, 8 / 257, 8 / 257)
        psi, _ = builtin_state("ho_vortex", {"l": 1}, spec, PhysicalParams())
        gc.collect()
        tracemalloc.start()
        try:
            m = decompose(psi)
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.I_unwrapped is None and m.vortex_plaquettes()
        assert held < 7e6


@st.composite
def phases(draw, masked=True, vortex=st.booleans()):
    """Fields of 3x3 to 40x40 cells with a chosen anchor (the cell of
    largest |psi|) and an optional vortex. With `masked`, also random masks,
    split masks, an isolated cell, and a vortex core that may be hidden in a
    masked hole; without, every cell is valid."""
    ny, nx = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = GridSpec(nx, ny, -1.0, -1.0, 2.0 / (nx - 1), 2.0 / (ny - 1))
    X, Y = spec.meshgrid()
    a, b, c, d = rng.normal(scale=3.0, size=4)
    theta = a * X + b * Y + c * np.sin(d * X * Y)
    mask = np.ones(spec.shape, dtype=bool)
    if masked:
        mask = rng.random(spec.shape) >= draw(st.sampled_from([0.0, 0.05, 0.2, 0.4]))
        if draw(st.booleans()):
            # a masked row or column splits the valid cells
            if draw(st.booleans()):
                mask[rng.integers(ny), :] = False
            else:
                mask[:, rng.integers(nx)] = False
    if draw(vortex):
        j0, i0 = rng.integers(ny), rng.integers(nx)
        theta = theta + np.arctan2(Y - spec.y()[j0], X - spec.x()[i0])
        r = draw(st.sampled_from([None, 0, 1, 2])) if masked else None
        if r is not None:
            mask[max(j0 - r, 0):j0 + r + 1, max(i0 - r, 0):i0 + r + 1] = False
    island = rng.integers(ny), rng.integers(nx)
    if masked and draw(st.booleans()):
        # one valid cell whose four neighbours are masked
        j, i = island
        mask[max(j - 1, 0):j + 2, i] = False
        mask[j, max(i - 1, 0):i + 2] = False
        mask[island] = True
    anchor = {
        "corner": (rng.choice([0, ny - 1]), rng.choice([0, nx - 1])),
        "edge": (0, rng.integers(nx)) if rng.random() < 0.5 else (rng.integers(ny), nx - 1),
        "inside": (rng.integers(ny), rng.integers(nx)),
        "island": island,
    }[draw(st.sampled_from(["corner", "edge", "inside", "island"]))]
    mask[anchor] = True
    amp = 0.5 + 0.5 * rng.random(spec.shape)
    amp[anchor] = 2.0
    return ComplexField(spec, amp * np.exp(1j * theta), mask)


def outcome(unwrap, psi):
    try:
        return unwrap(psi)
    except VortexError as err:
        return err


def assert_same_outcome(got, want, theta):
    # the oracles scan for tears only when no plaquette winds, and their
    # tears depend on the tree; unwrap_phase finds a hidden core by its
    # hole's charge, before any tree. The oracles add floats along their
    # tree, so they fix only the branch n = rint((I - theta) / 2 pi), and
    # unwrap_phase returns theta + 2 pi n bit for bit
    assert type(got) is type(want)
    if isinstance(want, VortexError):
        assert got.plaquettes == want.plaquettes
        if not want.plaquettes:
            assert bool(got.holes) == bool(want.holes)
    else:
        assert np.array_equal(got.mask, want.mask)
        n = np.rint((want.values - theta) / (2 * np.pi))
        assert np.array_equal(got.values.view(np.uint64), (theta + 2 * np.pi * n).view(np.uint64))


@given(phases(masked=False))
def test_unwrap_matches_cell_by_cell_bfs(psi):
    assert_same_outcome(outcome(unwrap_phase, psi), outcome(bfs_unwrap, psi),
                        angle(psi.values))


@given(phases())
def test_unwrap_matches_cell_by_cell_run_tree(psi):
    assert_same_outcome(outcome(unwrap_phase, psi), outcome(run_tree_unwrap, psi),
                        angle(psi.values))


@given(phases(vortex=st.just(False)))
def test_unwrapped_phase_congruent_to_angle(psi):
    try:
        I = unwrap_phase(psi)
    except VortexError:
        return
    # every valid cell is set, and each component keeps its anchor's phase
    assert np.array_equal(np.isfinite(I.values), psi.mask)
    theta, amp = angle(psi.values), np.abs(psi.values)
    for comp in components(psi.mask):
        anchor = min(comp, key=lambda c: (-amp[c], c))
        assert I.values[anchor] == theta[anchor]
    # I = theta + 2 pi n bit for bit, n whole, and n steps by each valid-valid
    # edge's turn count
    v = psi.mask
    n = np.rint(np.where(v, I.values - theta, 0.0) / (2 * np.pi))
    assert np.array_equal(I.values[v].view(np.uint64), (theta + 2 * np.pi * n)[v].view(np.uint64))
    _, sx, sy = phase_differences(psi)
    across = v[:, 1:] & v[:, :-1]
    assert np.array_equal((n[:, 1:] - n[:, :-1])[across], sx[across])
    up = v[1:] & v[:-1]
    assert np.array_equal((n[1:] - n[:-1])[up], sy[up])


@given(st.data())
def test_real_fields_times_a_global_phase_never_wind(data):
    # random signs and +-0 imaginary parts put +-pi steps on nodal lines; a
    # quarter turn keeps every difference exact, a random phase leaves them
    # within rounding of +-pi, inside _wrap's band
    ny, nx = data.draw(st.integers(3, 30)), data.draw(st.integers(3, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    real = np.empty((ny, nx), dtype=complex)
    real.real = rng.choice([-1.0, 1.0], (ny, nx)) * rng.uniform(0.1, 1.0, (ny, nx))
    real.imag = rng.choice([-0.0, 0.0], (ny, nx))
    mask = rng.random((ny, nx)) >= data.draw(st.sampled_from([0.0, 0.1, 0.3]))
    mask[0, 0] = True
    quarter = data.draw(st.sampled_from([1, 1j, -1, -1j]))
    for phase in (quarter, np.exp(1j * rng.uniform(-np.pi, np.pi))):
        psi = ComplexField(GridSpec(nx, ny), real * phase, mask)
        w, _ = residues(psi)
        assert not w.any()
        I = unwrap_phase(psi)
        assert np.array_equal(np.isfinite(I.values), psi.mask)
        d = mod_wrap(I.values - angle(psi.values))
        assert np.max(np.abs(d[I.mask])) < 1e-9


@given(st.data())
def test_residue_additivity_on_random_rectangles(data):
    ny, nx = data.draw(st.integers(3, 30)), data.draw(st.integers(3, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    noise = data.draw(st.sampled_from([0.3, 1.0, 3.0]))
    theta = rng.normal(scale=noise, size=(ny, nx)).cumsum(axis=1)
    psi = ComplexField(GridSpec(nx, ny), np.exp(1j * theta))
    j0, j1 = sorted(data.draw(st.lists(st.integers(0, ny - 1), min_size=2,
                                       max_size=2, unique=True)))
    i0, i1 = sorted(data.draw(st.lists(st.integers(0, nx - 1), min_size=2,
                                       max_size=2, unique=True)))
    w, ok = residues(psi)
    assert ok.all()
    assert loop_winding(psi, j0, j1, i0, i1) == int(w[j0:j1, i0:i1].sum())


@given(st.data())
def test_holes_are_the_8_connected_components_off_the_grid_edge(data):
    # with sx = -j and sy = 0 every plaquette circulates by exactly one
    # turn, so each hole's charge is the number of plaquettes touching it,
    # never 0: the list names every hole, by its first cell
    ny, nx = data.draw(st.integers(3, 40)), data.draw(st.integers(3, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    valid = rng.random((ny, nx)) >= data.draw(st.floats(0.05, 0.7))
    psi = ComplexField(GridSpec(nx, ny), np.ones((ny, nx), dtype=complex), valid)
    sx = np.repeat(-np.arange(ny, dtype=np.int8)[:, None], nx - 1, axis=1)
    diffs = PhaseDifferences(np.zeros((ny, nx)), sx, np.zeros((ny - 1, nx), np.int8))
    label, count = ndimage.label(~valid, np.ones((3, 3)))
    edge = set(np.concatenate([label[0], label[-1], label[:, 0], label[:, -1]]).tolist())
    corner = np.maximum.reduce([label[:-1, :-1], label[:-1, 1:], label[1:, :-1], label[1:, 1:]])
    want = []
    for k in range(1, count + 1):
        if k not in edge:
            j, i = np.argwhere(label == k)[0]
            want.append((int(j), int(i), int((corner == k).sum())))
    assert hole_charges(psi, diffs) == sorted(want)


@st.composite
def masks(draw):
    """Masks of 3x3 to 40x40 cells: random, all True, all False or one cell."""
    ny, nx = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "full", "empty", "single"]))
    if kind == "random":
        return rng.random((ny, nx)) >= draw(st.floats(0.0, 1.0))
    mask = np.full((ny, nx), kind == "full")
    if kind == "single":
        mask[rng.integers(ny), rng.integers(nx)] = True
    return mask


@given(masks(), st.sampled_from([0, 1]))
def test_row_runs_match_a_cell_by_cell_scan(mask, reach):
    ny, nx = mask.shape
    runs, run_of = [], {}
    for j in range(ny):
        for i in range(nx):
            if mask[j, i]:
                if not (i and mask[j, i - 1]):
                    runs.append([j, i, i])
                runs[-1][2] = i
                run_of[j, i] = len(runs) - 1
    # reach 0: 4-adjacent across rows, reach 1: 8-adjacent
    touching = {(r, run_of[j + 1, i + d]) for (j, i), r in run_of.items()
                for d in range(-reach, reach + 1) if (j + 1, i + d) in run_of}
    got = _row_runs(mask, reach)
    assert list(zip(*(a.tolist() for a in got[:3]))) == [tuple(r) for r in runs]
    pairs = list(zip(got[3].tolist(), got[4].tolist()))
    assert pairs == sorted(touching)  # once each, by p, then q
    if reach == 0:
        # the same order as a scan, row-major, of the cells of the lower row
        # that open a span of columns shared with the row above
        first = mask.copy()
        first[:, 1:] &= ~mask[:, :-1]
        starts = np.flatnonzero(first)
        opens = np.flatnonzero(mask[:-1] & mask[1:] & (first[:-1] | first[1:]))
        lower = np.searchsorted(starts, opens, side="right") - 1
        upper = np.searchsorted(starts, opens + nx, side="right") - 1
        assert pairs == list(zip(lower.tolist(), upper.tolist()))


@st.composite
def bordered_phases(draw):
    """Fields of 3x3 to 40x40 cells whose border ring is valid, with a few
    vortices and phase noise; up to 60% of the other cells are masked."""
    ny, nx = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = GridSpec(nx, ny, -1.0, -1.0, 2.0 / (nx - 1), 2.0 / (ny - 1))
    X, Y = spec.meshgrid()
    theta = rng.normal(scale=draw(st.sampled_from([0.0, 0.5, 2.0])), size=spec.shape)
    for _ in range(draw(st.integers(0, 4))):
        x0, y0 = rng.uniform(-1, 1, 2)
        theta += rng.choice([-2, -1, 1, 2]) * np.arctan2(Y - y0, X - x0)
    valid = rng.random(spec.shape) >= draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    valid[[0, -1]] = valid[:, [0, -1]] = True
    return ComplexField(spec, np.exp(1j * theta), valid)


@given(bordered_phases())
def test_plaquettes_and_holes_carry_the_border_winding(psi):
    # by residue additivity every charge inside a valid border ring is a
    # winding plaquette or a charged hole, counted once
    w, _ = residues(psi)
    total = int(w.sum()) + sum(q for _, _, q in hole_charges(psi))
    ny, nx = psi.spec.shape
    assert total == loop_winding(psi, 0, ny - 1, 0, nx - 1)


@pytest.mark.parametrize("n", [65, 64, 96])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("threshold", [1e-8, 0.3, 0.5])
def test_masked_vortex_core_is_one_hole_of_charge_l(n, l, threshold):
    # the oscillator vortex on the CLI's grid over [-4, 4]^2: on 65^2 a cell
    # sits on the core, which every threshold masks; on 64^2 and 96^2 the
    # default threshold masks nothing and the core lies inside a plaquette
    h = 8 / (n + 1)
    spec = GridSpec(n, n, -4 + h, -4 + h, h, h)
    psi, _ = builtin_state("ho_vortex", {"l": l}, spec, PhysicalParams())
    m = decompose(psi, threshold)
    plaquettes = m.vortex_plaquettes()
    if n == 65 or threshold > 1e-8:
        assert plaquettes == [] and len(m.holes) == 1 and m.holes[0][2] == l
    else:
        assert m.holes == [] and sum(w for _, _, w in plaquettes) == l
    assert m.I_unwrapped is None


@given(st.data())
def test_residues_are_int8_roundings_of_the_circulations(data):
    # noisy phases wind by up to +-2 per plaquette; some cells are masked
    ny, nx = data.draw(st.integers(3, 30)), data.draw(st.integers(3, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(-np.pi, np.pi, size=(ny, nx))
    psi = ComplexField(GridSpec(nx, ny), np.exp(1j * theta), rng.random((ny, nx)) >= 0.1)
    w, ok = residues(psi)
    t = angle(psi.values)
    dx, dy = mod_wrap(t[:, 1:] - t[:, :-1]), mod_wrap(t[1:] - t[:-1])
    s = dx[:-1] + dy[:, 1:] - dx[1:] - dy[:, :-1]
    assert w.dtype == np.int8
    assert np.array_equal(w, np.rint(np.where(ok, s, 0.0) / (2 * np.pi)).astype(np.int64))


@given(st.integers(9, 33), st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
       st.floats(-np.pi, np.pi))
def test_divjtilde_scaled_invariant_under_global_phase(n, k, alpha):
    spec = grid(n, half=2.0)
    X, Y = spec.meshgrid()
    psi = np.exp(k[0] * X + k[1] * Y - 0.3 * (X**2 + Y**2)
                 + 1j * (k[2] * X + k[3] * Y + k[4] * X * Y))

    def scaled(values):
        m = decompose(ComplexField(spec, values))
        return norm_table(m, compute_currents(m, PhysicalParams()), analyze(m))[
            "divJtilde_scaled"]["max"]

    assert scaled(psi * np.exp(1j * alpha)) == pytest.approx(scaled(psi), rel=1e-9)
