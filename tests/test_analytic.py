import itertools

import numpy as np
import pytest

from madelab.analytic import (
    FAILS,
    HOLDS,
    PRECONDITION_NOT_MET,
    PROPERTIES,
    PropertyVerdict,
    analyze,
    check_properties,
    default_tolerance,
    table_max,
    verdicts,
)
from madelab.currents import PhysicalParams, compute_currents
from madelab.grid import ComplexField, GridSpec
from madelab.madelung import decompose

P = PhysicalParams()


def reference_verdicts(norms: dict, tol: float) -> dict[str, PropertyVerdict]:
    """Reference for `verdicts`: one hand-written branch block per property."""
    if not tol > 0:
        raise ValueError("tol must be positive")

    n_gradS = table_max(norms["gradS"])
    n_orth = table_max(norms["orth"])
    n_harmS = table_max(norms["harmS"])
    n_harmI = table_max(norms["harmI"])
    n_defC = table_max(norms["defectC"])
    n_defA = table_max(norms["defectA"])
    n_divJt_scaled = table_max(norms["divJtilde_scaled"])

    def ok(n: float | None) -> bool | None:
        return None if n is None else n <= tol

    out: dict[str, PropertyVerdict] = {}

    # P1: under the stationary continuity hypothesis (defectC ~ 0),
    # "I harmonic" and "g analytic" (orthogonality) must agree.
    if None in (n_defC, n_harmI, n_orth):
        out["P1"] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
    elif not ok(n_defC):
        out["P1"] = PropertyVerdict(
            PRECONDITION_NOT_MET,
            {"defectC": n_defC},
            tol,
            "state is not stationary at this tolerance (defectC > tol)",
        )
    else:
        agree = ok(n_harmI) == ok(n_orth)
        out["P1"] = PropertyVerdict(
            HOLDS if agree else FAILS,
            {"defectC": n_defC, "harmI": n_harmI, "orth": n_orth},
            tol,
        )

    # P2: gradS ~ 0 (plus stationarity) forces I harmonic and g analytic.
    if None in (n_gradS, n_defC, n_harmI, n_orth):
        out["P2"] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
    elif not (ok(n_gradS) and ok(n_defC)):
        out["P2"] = PropertyVerdict(
            PRECONDITION_NOT_MET,
            {"gradS": n_gradS, "defectC": n_defC},
            tol,
            "hypothesis |gradS| ~ 0 (with defectC ~ 0) not met",
        )
    else:
        conclusion = ok(n_harmI) and ok(n_orth)
        out["P2"] = PropertyVerdict(
            HOLDS if conclusion else FAILS,
            {"gradS": n_gradS, "defectC": n_defC, "harmI": n_harmI, "orth": n_orth},
            tol,
        )

    # P3: "div J~ = 0" iff the analytic bracket vanishes. The two sides are
    # algebraically the same expression, so this doubles as a self-test.
    lhs_name, lhs = ("divJtilde_scaled", n_divJt_scaled)
    if lhs is None:
        lhs_name, lhs = ("defectA", n_defA)
    if lhs is None or n_defA is None:
        out["P3"] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
    else:
        agree = ok(lhs) == ok(n_defA)
        out["P3"] = PropertyVerdict(
            HOLDS if agree else FAILS,
            {lhs_name: lhs, "defectA": n_defA},
            tol,
            "" if lhs_name != "defectA" else "J~ unavailable; bracket used for both sides",
        )

    # P4: with S harmonic, "div J~ = 0" (via defectA) must agree with orth.
    if None in (n_harmS, n_defA, n_orth):
        out["P4"] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
    elif not ok(n_harmS):
        out["P4"] = PropertyVerdict(
            PRECONDITION_NOT_MET,
            {"harmS": n_harmS},
            tol,
            "hypothesis lapS ~ 0 not met",
        )
    else:
        agree = ok(n_defA) == ok(n_orth)
        out["P4"] = PropertyVerdict(
            HOLDS if agree else FAILS,
            {"harmS": n_harmS, "defectA": n_defA, "orth": n_orth},
            tol,
        )

    # P5: constant S forces defectA ~ 0 and analyticity.
    if None in (n_gradS, n_defA, n_orth):
        out["P5"] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
    elif not ok(n_gradS):
        out["P5"] = PropertyVerdict(
            PRECONDITION_NOT_MET,
            {"gradS": n_gradS},
            tol,
            "hypothesis |gradS| ~ 0 not met",
        )
    else:
        conclusion = ok(n_defA) and ok(n_orth)
        out["P5"] = PropertyVerdict(
            HOLDS if conclusion else FAILS,
            {"gradS": n_gradS, "defectA": n_defA, "orth": n_orth},
            tol,
        )

    return out


def grid(n=65, half=2.0, x0=None, y0=None):
    h = 2 * half / (n - 1)
    return GridSpec(n, n, -half if x0 is None else x0, -half if y0 is None else y0, h, h)


def state(fn, spec):
    X, Y = spec.meshgrid()
    return decompose(ComplexField(spec, fn(X, Y)))


def full_run(fn, spec, tol=None):
    m = state(fn, spec)
    c = compute_currents(m, P)
    r = analyze(m)
    if tol is None:
        tol = default_tolerance(m)
    return m, c, r, check_properties(m, c, r, tol)


class TestAnalyze:
    def test_exp_z_all_residuals_small(self):
        # psi = e^{x+iy}: S+iI literally analytic, S and I harmonic.
        # orth/harmS/harmI vanish discretely; crStrict only to O(h^2)
        # (sinh(h)/h vs sin(h)/h mismatch in the two difference quotients)
        m = state(lambda X, Y: np.exp(X + 1j * Y), grid())
        r = analyze(m)
        for key in ("orth", "harmI"):
            assert r.norms[key]["max"] < 1e-9, key
        for key in ("crStrict", "harmS"):
            assert r.norms[key]["max"] < m.spec.dx ** 2, key

    def test_plane_wave_orth_vs_cr_gap(self):
        # constant phase gradient, constant amplitude: orthogonal trivially
        # (gradS = 0) but the strict Cauchy-Riemann defect is |k|, nonzero
        m = state(lambda X, Y: np.exp(1j * (2 * X + 3 * Y)), grid())
        r = analyze(m)
        assert r.norms["orth"]["max"] < 1e-12
        assert r.norms["crStrict"]["max"] > 3.0

    def test_gaussian_not_harmonic(self):
        m = state(lambda X, Y: np.exp(-0.5 * (X**2 + Y**2)) + 0j, grid())
        r = analyze(m)
        assert r.norms["orth"]["max"] < 1e-12  # gradI = 0
        assert r.norms["harmS"]["max"] > 1.0   # lapS = -2

    def test_norms_have_max_and_rms(self):
        r = analyze(state(lambda X, Y: np.exp(X + 1j * Y), grid(17)))
        for v in r.norms.values():
            assert set(v) == {"max", "rms"}
            assert v["rms"] <= v["max"]

    def test_cr_implies_other_residuals(self):
        # crStrict small forces orth, harmS, harmI small (discretely too)
        for fn in (
            lambda X, Y: np.exp(X + 1j * Y),
            lambda X, Y: ((X + 3) + 1j * Y) ** 2,
            lambda X, Y: np.exp(((X + 3) + 1j * Y) ** 3 / 30),
        ):
            m = state(fn, grid(97, half=1.0))
            r = analyze(m)
            cr = r.norms["crStrict"]["max"]
            tol = default_tolerance(m)
            assert cr < tol
            for key in ("orth", "harmS", "harmI"):
                assert r.norms[key]["max"] < 5 * tol, key


class TestDefaultTolerance:
    def test_floor(self):
        # tiny h: floor at 1e-8 times gradient scale
        m = state(lambda X, Y: np.exp(1j * (X + Y)), GridSpec(2049, 5, 0, 0, 1e-4, 1e-4))
        assert default_tolerance(m) >= 1e-8

    def test_h_squared_scaling(self):
        m1 = state(lambda X, Y: np.exp(X + 1j * Y), grid(33))
        m2 = state(lambda X, Y: np.exp(X + 1j * Y), grid(65))
        r = default_tolerance(m1) / default_tolerance(m2)
        assert 3.5 < r < 4.6

    def test_gradient_scale(self):
        spec = grid(33)
        m1 = state(lambda X, Y: np.exp(1j * (X + Y)), spec)
        m2 = state(lambda X, Y: np.exp(1j * 20 * (X + Y)), spec)
        assert default_tolerance(m2) > 3 * default_tolerance(m1)


class TestVerdicts:
    def test_exp_z_verdicts(self):
        # gradS = 1 everywhere, so P2/P5 hypotheses are simply not met
        _, _, _, v = full_run(lambda X, Y: np.exp(X + 1j * Y), grid())
        assert set(v) == set(PROPERTIES)
        for name in ("P1", "P3", "P4"):
            assert v[name].status == HOLDS, (name, v[name])
        for name in ("P2", "P5"):
            assert v[name].status == PRECONDITION_NOT_MET, (name, v[name])

    def test_plane_wave_all_hold(self):
        _, _, _, v = full_run(lambda X, Y: np.exp(1j * (2 * X + 3 * Y)), grid())
        for name in PROPERTIES:
            assert v[name].status == HOLDS, (name, v[name])

    def test_gaussian_preconditions(self):
        # gradS large: P2/P5 hypotheses not met; defectC = 0 so P1 applies
        _, _, _, v = full_run(lambda X, Y: np.exp(-0.5 * (X**2 + Y**2)) + 0j, grid())
        assert v["P1"].status == HOLDS  # harmI small and orth small: agree
        assert v["P2"].status == PRECONDITION_NOT_MET
        assert v["P5"].status == PRECONDITION_NOT_MET
        assert v["P4"].status == PRECONDITION_NOT_MET  # lapS = -2

    def test_nonstationary_state_p1_precondition(self):
        # generic S, I: continuity bracket is order 1
        m, c, r, v = full_run(
            lambda X, Y: np.exp(np.sin(X) + 1j * (X * Y)), grid()
        )
        assert v["P1"].status == PRECONDITION_NOT_MET
        assert "defectC" in v["P1"].residuals

    def test_p3_self_consistency_always(self):
        # P3 compares div J~ against its own bracket; holds for any state
        for fn in (
            lambda X, Y: np.exp(X + 1j * Y),
            lambda X, Y: np.exp(np.sin(X) + 1j * X * Y),
            lambda X, Y: np.exp(-0.5 * (X**2 + Y**2)) + 0j,
        ):
            _, _, _, v = full_run(fn, grid())
            assert v["P3"].status == HOLDS

    def test_p3_vortex_uses_bracket(self):
        spec = GridSpec(40, 40, -3.9, -3.9, 0.2, 0.2)
        X, Y = spec.meshgrid()
        m = decompose(ComplexField(spec, (X + 1j * Y) * np.exp(-0.5 * (X**2 + Y**2))))
        c = compute_currents(m, P)
        r = analyze(m)
        v = check_properties(m, c, r, default_tolerance(m))
        assert "defectA" in v["P3"].residuals
        assert "divJtilde_scaled" not in v["P3"].residuals
        assert v["P3"].note

    def test_p1_fails_when_sides_disagree(self):
        # stationary (defectC ~ 0 forced by tolerance choice) yet harmI
        # small while orth large would break P1; build it synthetically by
        # picking tol between the two norms of a gaussian-free case.
        m, c, r, _ = full_run(lambda X, Y: np.exp(1j * (2 * X + 3 * Y)), grid())
        # harmI ~ 0, orth ~ 0; force disagreement by injecting orth residual
        r.orth.values[:] = 1.0
        v = check_properties(m, c, r, 1e-6)
        assert v["P1"].status == FAILS

    def test_tol_must_be_positive(self):
        m, c, r, _ = full_run(lambda X, Y: np.exp(X + 1j * Y), grid(17))
        with pytest.raises(ValueError):
            check_properties(m, c, r, 0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_tol_must_be_finite(self, tol):
        # an infinite tolerance would let every hypothesis and side hold
        m, c, r, _ = full_run(lambda X, Y: np.exp(X + 1j * Y), grid(17))
        with pytest.raises(ValueError, match="finite"):
            check_properties(m, c, r, tol)

    def test_verdict_residuals_are_floats(self):
        _, _, _, v = full_run(lambda X, Y: np.exp(X + 1j * Y), grid(33))
        for verdict in v.values():
            assert verdict.tol > 0
            for val in verdict.residuals.values():
                assert np.isfinite(val)


TABLE_NORMS = ("orth", "harmS", "harmI", "defectC", "defectA", "divJtilde_scaled")


@pytest.mark.parametrize("gradS_factor", [None, 0.5, 1.0, 2.0])
def test_table_verdicts_match_reference(gradS_factor):
    # every combination of the seven norms the verdicts read, each masked,
    # n/a, below, at or above tol; the loop over the property table must
    # reproduce the branch-by-branch reference in status, residuals (key
    # order included), tol and note. The gradS entry is split across the
    # cases: None sweeps it masked and n/a, a factor fixes it at factor*tol
    tol = 1e-3
    entries = ["masked", "n/a"] + [{"max": f * tol, "rms": f * tol} for f in (0.5, 1.0, 2.0)]
    gradS_entries = (
        ["masked", "n/a"]
        if gradS_factor is None
        else [{"max": gradS_factor * tol, "rms": gradS_factor * tol}]
    )
    for gradS in gradS_entries:
        for combo in itertools.product(entries, repeat=len(TABLE_NORMS)):
            norms = dict(zip(TABLE_NORMS, combo), gradS=gradS)
            got, want = verdicts(norms, tol), reference_verdicts(norms, tol)
            assert list(got) == list(want) == list(PROPERTIES)
            for name, w in want.items():
                assert got[name] == w, (name, norms)
                assert list(got[name].residuals) == list(w.residuals), (name, norms)
