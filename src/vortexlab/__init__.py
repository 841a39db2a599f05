"""Spectral solver and experiment lab for abelian vortices on flat tori.

The package reduces divisor-prescribed vortex equations to a scalar
exponential-nonlinearity PDE, solves it with a damped Newton method over
FFT-based periodic calculus, and measures adiabatic-limit behavior
(curvature concentration, limit profiles, vanishing orders) against
closed-form predictions.
"""

__version__ = "0.1.0"

from .errors import (
    BradlowViolation,
    DegenerateFit,
    MaxIterExceeded,
    NoConvergence,
    NoRoot,
    OverflowGuard,
    OverlappingBump,
    ParseError,
    UnderResolved,
    Unsolvable,
    ValidationError,
    VortexLabError,
)
from .fields import (
    GridSpec,
    ScalarField,
    TorusGeometry,
    constant_field,
    cutoff_ratio_sup,
    dirichlet_energy,
    integrate,
    l2_norm,
    laplacian,
    resample,
    solve_linearized,
    spectral_tail,
    sup_norm,
)
from .greens import (
    Divisor,
    divisor_potential,
    torus_green,
)
from .kw import (
    Classification,
    KWProblem,
    KWSolution,
    NewtonTrace,
    SolverConfig,
    kw_energy,
    kw_limit,
    kw_residual,
    kw_solve,
    young_bound,
)
from .vortex import (
    ClassicalVortexSpec,
    ContinuationSchedule,
    DiagnosticsReport,
    GeneralizedSpec,
    GeneralizedTerm,
    MixedVortexSpec,
    PointInfo,
    Reconstruction,
    SweepReport,
    adiabatic_sweep,
    curvature_mass,
    mixed_limit_phi_sq,
    reconstruct,
    reduce_any,
    solve_and_report,
    vanishing_order_fit,
)
from .config import RunConfig, echo_config, parse_config
from .runner import emit_csv, emit_heatmap, emit_line_plot, run

__all__ = [name for name in dir() if not name.startswith("_")]
