"""Analyticity and harmonicity diagnostics, and machine-checkable verdicts
for the five structural properties of stationary Madelung states.

Two analyticity residuals are computed side by side and reported without
adjudication:

  * orth     = gradS . gradI            (the orthogonality criterion)
  * crStrict = sqrt((Sx - Iy)^2 + (Sy + Ix)^2)   (textbook Cauchy-Riemann
    defect of g = S + iI; strictly stronger than orthogonality)

Equivalence-style properties are scored as boolean agreement of both sides
at one shared tolerance: at finite grid spacing both sides carry O(h^2)
noise, so agreement is the falsifiable form of "if and only if".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .currents import CurrentFields
from .grid import ScalarField, interior_mask, max_norm, rms_norm
from .madelung import MadelungFields

HOLDS = "holds"
FAILS = "fails"
PRECONDITION_NOT_MET = "precondition-not-met"

PROPERTY_NAMES = ("P1", "P2", "P3", "P4", "P5")


class EmptyInteriorError(ValueError):
    """No interior valid cells to diagnose."""


def _norm_entry(f: ScalarField | None) -> dict | str:
    """Interior {"max", "rms"}; "masked" without interior cells; "n/a" for None."""
    if f is None:
        return "n/a"
    mx = max_norm(f.values, f.mask)
    if mx is None:
        return "masked"
    return {"max": mx, "rms": rms_norm(f.values, f.mask)}


@dataclass
class AnalyticityReport:
    orth: ScalarField
    crStrict: ScalarField
    harmS: ScalarField
    harmI: ScalarField

    @property
    def norms(self) -> dict:
        """Norms of the four residuals, taken from the fields as they are now."""
        return {name: _norm_entry(getattr(self, name))
                for name in ("orth", "crStrict", "harmS", "harmI")}


@dataclass
class PropertyVerdict:
    status: str
    residuals: dict
    tol: float
    note: str = ""


def analyze(m: MadelungFields) -> AnalyticityReport:
    if not interior_mask(m.lapS.mask).any():
        raise EmptyInteriorError("empty interior after node masking")
    cr = np.sqrt(
        (m.gradS.vx - m.gradI.vy) ** 2 + (m.gradS.vy + m.gradI.vx) ** 2
    )
    crStrict = ScalarField(m.spec, cr, m.gradS.mask & m.gradI.mask)
    return AnalyticityReport(m.cross, crStrict, m.lapS, m.lapI)


def default_tolerance(m: MadelungFields) -> float:
    """max(10 h^2, 1e-8), scaled by the state's typical gradient size."""
    h = max(m.spec.dx, m.spec.dy)
    g = np.sqrt(
        m.gradS.vx**2 + m.gradS.vy**2 + m.gradI.vx**2 + m.gradI.vy**2
    )
    scale = rms_norm(g, m.gradS.mask & m.gradI.mask)
    scale = max(1.0, scale if scale is not None else 1.0)
    return max(10.0 * h * h, 1e-8) * scale


def gradS_max(m: MadelungFields) -> float | None:
    """Interior max |gradS|, the hypothesis of P2 and P5."""
    return max_norm(np.hypot(m.gradS.vx, m.gradS.vy), m.gradS.mask)


def norm_table(m: MadelungFields, c: CurrentFields, r: AnalyticityReport) -> dict:
    """Interior norms of every diagnostic field: the report's `norms`, and
    the numbers the verdicts and the convergence study read."""
    # raw div J~ carries the anchor-dependent e^{2I} prefactor; the norm is
    # taken of e^{-2I} div J~, which is gauge/anchor independent
    scaled = None
    if c.divJtilde is not None and m.I_unwrapped is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            values = c.divJtilde.values * np.exp(-2.0 * m.I_unwrapped.values)
        scaled = ScalarField(m.spec, values, c.divJtilde.mask & m.I_unwrapped.mask)
    return {
        **r.norms,
        "defectC": _norm_entry(c.defectC),
        "defectA": _norm_entry(c.defectA),
        "divJ": _norm_entry(c.divJ),
        "divJtilde_scaled": _norm_entry(scaled),
        "qhjResidual": _norm_entry(c.qhjResidual),
    }


def table_max(entry: dict | str) -> float | None:
    """The interior max of a norm-table entry; None if masked or n/a."""
    return entry["max"] if isinstance(entry, dict) else None


def check_properties(
    m: MadelungFields,
    c: CurrentFields,
    r: AnalyticityReport,
    tol: float,
) -> dict[str, PropertyVerdict]:
    """Verdicts for the five properties at interior max-norm tolerance tol."""
    return verdicts(norm_table(m, c, r), gradS_max(m), tol)


def verdicts(
    norms: dict, n_gradS: float | None, tol: float
) -> dict[str, PropertyVerdict]:
    """P1-P5 from a `norm_table`, the interior max |gradS| and tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")

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
            {"defectC": n_defC, "harmI": n_harmI, "orth": n_orth},
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
            {"gradS": n_gradS, "harmI": n_harmI, "orth": n_orth},
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
