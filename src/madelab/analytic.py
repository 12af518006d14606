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
from typing import NamedTuple

import numpy as np

from .currents import CurrentFields
from .grid import ScalarField, VectorField, interior_norms
from .madelung import MadelungFields

HOLDS = "holds"
FAILS = "fails"
PRECONDITION_NOT_MET = "precondition-not-met"


class _Property(NamedTuple):
    hypothesis: tuple[str, ...]  # norms that must each be <= tol
    unmet_note: str              # the note when the hypothesis fails
    rule: str                    # "agree": both sides on one side of tol; "both": both <= tol
    sides: tuple[str, str]


PROPERTIES = {
    # under the stationary continuity hypothesis (defectC ~ 0), "I harmonic"
    # and "g analytic" (orthogonality) must agree
    "P1": _Property(("defectC",), "state is not stationary at this tolerance (defectC > tol)",
                    "agree", ("harmI", "orth")),
    # gradS ~ 0 (plus stationarity) forces I harmonic and g analytic
    "P2": _Property(("gradS", "defectC"), "hypothesis |gradS| ~ 0 (with defectC ~ 0) not met",
                    "both", ("harmI", "orth")),
    # "div J~ = 0" iff the analytic bracket vanishes; the two sides are
    # algebraically the same expression, so this doubles as a self-test
    "P3": _Property((), "", "agree", ("divJtilde_scaled", "defectA")),
    # with S harmonic, "div J~ = 0" (via defectA) must agree with orth
    "P4": _Property(("harmS",), "hypothesis lapS ~ 0 not met", "agree", ("defectA", "orth")),
    # constant S forces defectA ~ 0 and analyticity
    "P5": _Property(("gradS",), "hypothesis |gradS| ~ 0 not met", "both", ("defectA", "orth")),
}


def _norm_entry(name: str, f: ScalarField | VectorField | None) -> dict | str:
    """Interior {"max", "rms"} of a scalar field, or of a vector field's
    length; "masked" without interior cells; "n/a" for None. A norm that
    overflows is refused: the report is strict JSON."""
    if f is None:
        return "n/a"
    values = np.hypot(f.vx, f.vy) if isinstance(f, VectorField) else f.values
    norms = interior_norms(values, f.mask)
    if norms is None:
        return "masked"
    top, rms = norms
    if rms == np.inf:
        raise ValueError(f"the interior rms norm of {name} overflows")
    return {"max": top, "rms": rms}


@dataclass
class AnalyticityReport:
    orth: ScalarField
    crStrict: ScalarField
    harmS: ScalarField
    harmI: ScalarField

    @property
    def norms(self) -> dict:
        """Norms of the four residuals, taken from the fields as they are now."""
        return {name: _norm_entry(name, getattr(self, name))
                for name in ("orth", "crStrict", "harmS", "harmI")}


@dataclass
class PropertyVerdict:
    status: str
    residuals: dict
    tol: float
    note: str = ""


def analyze(m: MadelungFields) -> AnalyticityReport:
    with np.errstate(over="ignore"):  # `_norm_entry` refuses an infinite rms
        cr = np.sqrt(
            (m.gradS.vx - m.gradI.vy) ** 2 + (m.gradS.vy + m.gradI.vx) ** 2
        )
    crStrict = ScalarField(m.spec, cr)
    return AnalyticityReport(m.cross, crStrict, m.lapS, m.lapI)


def default_tolerance(m: MadelungFields) -> float:
    """max(10 h^2, 1e-8), scaled by the state's typical gradient size."""
    h = max(m.spec.dx, m.spec.dy)
    with np.errstate(over="ignore"):  # an infinite tol is refused by `verdicts`
        g = np.sqrt(m.gS2 + m.gradI.vx**2 + m.gradI.vy**2)
    norms = interior_norms(g, m.gradS.mask & m.gradI.mask)
    return max(10.0 * h * h, 1e-8) * max(1.0, norms[1] if norms is not None else 1.0)


def norm_table(m: MadelungFields, c: CurrentFields, r: AnalyticityReport) -> dict:
    """Interior norms of every diagnostic field and of |gradS|: the report's
    `norms`, and all that the verdicts and the convergence study read."""
    table = r.norms
    table["gradS"] = _norm_entry("gradS", m.gradS)
    # raw div J~ carries the anchor-dependent e^{2I} prefactor and hbar/m;
    # the norm is taken of (m/hbar) e^{-2I} div J~, which is gauge/anchor
    # independent and approximates defectA, the other side of P3
    scaled = None
    if c.divJtilde is not None and m.I_unwrapped is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            values = (c.divJtilde.values * np.exp(-2.0 * m.I_unwrapped.values)
                      * (c.params.mass / c.params.hbar))
        scaled = ScalarField(m.spec, values)
    fields = {"defectC": c.defectC, "defectA": c.defectA, "divJ": c.divJ,
              "divJtilde_scaled": scaled, "qhjResidual": c.qhjResidual}
    table.update((name, _norm_entry(name, f)) for name, f in fields.items())
    return table


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
    return verdicts(norm_table(m, c, r), tol)


def verdicts(norms: dict, tol: float) -> dict[str, PropertyVerdict]:
    """P1-P5 from a `norm_table` and tol. An unmet hypothesis lists its
    norms; a tested property lists the hypothesis norms, then the sides."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    n = {key: table_max(entry) for key, entry in norms.items()}
    out: dict[str, PropertyVerdict] = {}
    for name, (hypothesis, unmet_note, rule, sides) in PROPERTIES.items():
        note = ""
        if "divJtilde_scaled" in sides and n["divJtilde_scaled"] is None:
            # J~ is undefined when the phase has vortices; the bracket stands in
            sides, note = ("defectA", "defectA"), "J~ unavailable; bracket used for both sides"
        if None in (n[key] for key in hypothesis + sides):
            out[name] = PropertyVerdict(PRECONDITION_NOT_MET, {}, tol, "indeterminate input")
        elif not all(n[key] <= tol for key in hypothesis):
            out[name] = PropertyVerdict(
                PRECONDITION_NOT_MET, {key: n[key] for key in hypothesis}, tol, unmet_note)
        else:
            a, b = (n[key] <= tol for key in sides)
            held = a == b if rule == "agree" else a and b
            out[name] = PropertyVerdict(HOLDS if held else FAILS,
                                        {key: n[key] for key in dict.fromkeys(hypothesis + sides)},
                                        tol, note)
    return out
