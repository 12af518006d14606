"""madelab: amplitude/phase decomposition diagnostics for stationary
quantum states on 2D grids."""

from .analytic import (
    AnalyticityReport,
    PropertyVerdict,
    analyze,
    check_properties,
    default_tolerance,
)
from .catalog import builtin_state
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
)
from .madelung import (
    MadelungFields,
    VortexError,
    decompose,
    residues,
    unwrap_phase,
)

__version__ = "0.1.0"

# The solver needs scipy, which takes longer to import than the rest of
# madelab; `spectral` loads on first access to one of its names (PEP 562).
_SOLVER_NAMES = ("EigenSolution", "Hamiltonian", "assemble", "combine", "solve_lowest")


def __getattr__(name):
    if name in _SOLVER_NAMES:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_SOLVER_NAMES])
