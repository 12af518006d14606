"""madelab: amplitude/phase decomposition diagnostics for stationary
quantum states on 2D grids."""

from .analytic import (
    AnalyticityReport,
    PropertyVerdict,
    analyze,
    check_properties,
    default_tolerance,
)
from .currents import (
    CurrentFields,
    PhysicalParams,
    analytic_current,
    compute_currents,
    de_broglie,
    probability_current,
    qhj_residual,
    quantum_potential,
)
from .grid import (
    ComplexField,
    GridSpec,
    ScalarField,
    VectorField,
    divergence,
    dot,
    gradient,
    laplacian,
)
from .madelung import (
    MadelungFields,
    VortexError,
    decompose,
    loop_winding,
    residues,
    unwrap_phase,
)
from .spectral import (
    EigenSolution,
    Hamiltonian,
    assemble,
    builtin_state,
    combine,
    solve_lowest,
)

__version__ = "0.1.0"
