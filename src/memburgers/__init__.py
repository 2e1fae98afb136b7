"""Implicit graded-mesh solver for a Burgers-type equation with memory.

The equation is u_t + u u_x - I^alpha(u_xx) = f on (0, L) x (0, T] with
homogeneous Dirichlet boundary values, where I^alpha is the
Riemann-Liouville integral with weakly singular kernel
t**(alpha-1)/Gamma(alpha), 0 < alpha < 1.  The discretization combines a
product-integration rule for the memory term, a skew-symmetric convection
form, and Crank-Nicolson-type stepping on a graded temporal mesh; grading
at exponent 2/sigma recovers (essentially) second order in time for
solutions with t**sigma-type initial layers.
"""

from .gridops import GridFunction, norm_l2
from .harness import (
    ConvergenceRow,
    OrderPrediction,
    StudyPlan,
    emit_csv,
    error_at_final_time,
    expected_temporal_order,
    observed_rate,
    resolve_gamma,
    run_study,
)
from .mesh import (
    MeshHypothesesReport,
    SpatialGrid,
    TemporalMesh,
    build_graded_mesh,
    build_mesh_from_levels,
    build_spatial_grid,
    check_mesh_hypotheses,
)
from .problems import (
    F_MODES,
    ForcingTerm,
    ManufacturedProblem,
    SeparableForcing,
    example1,
    example2,
    f_half,
    problem_by_name,
)
from .quadrature import compute_weights
from .scheme import (
    NonconvergenceError,
    SchemeConfig,
    SolveResult,
    StabilityViolationError,
    StepReport,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "TemporalMesh",
    "SpatialGrid",
    "MeshHypothesesReport",
    "build_graded_mesh",
    "build_mesh_from_levels",
    "build_spatial_grid",
    "check_mesh_hypotheses",
    "compute_weights",
    "GridFunction",
    "norm_l2",
    "SchemeConfig",
    "StepReport",
    "SolveResult",
    "NonconvergenceError",
    "StabilityViolationError",
    "solve",
    "F_MODES",
    "ForcingTerm",
    "SeparableForcing",
    "ManufacturedProblem",
    "example1",
    "example2",
    "f_half",
    "problem_by_name",
    "ConvergenceRow",
    "StudyPlan",
    "OrderPrediction",
    "error_at_final_time",
    "observed_rate",
    "expected_temporal_order",
    "resolve_gamma",
    "run_study",
    "emit_csv",
]
