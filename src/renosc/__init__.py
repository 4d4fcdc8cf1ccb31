"""renosc: eigenvalue counting for non-Hamiltonian boundary-value ODE systems.

Propagates Grassmannian solution frames of y' = A(x; lambda) y, evaluates a
pair of skew-symmetric determinant forms along paths, and turns their
projective winding into eigenvalue lower bounds, invariance certificates and
spectral-curve maps.
"""

from ._kernels import NUMBA_ENABLED, backend_name
from .errors import (
    BlowUpError,
    ConfigError,
    DegenerateCoefficientError,
    ExpressionEvalError,
    ExpressionSyntaxError,
    InvalidInputError,
    InvarianceViolationError,
    NeedsFinerGridError,
    RankDeficiencyError,
    RenoscError,
    ShelfAssertionError,
)
from .invariance import (
    InvarianceReport,
    LossPoint,
    ScanResult,
    asymptotic_bc_determinants,
    classify_loss_point,
    constants_report,
    delta_bound_higher_order,
    rho_grid_scan,
)
from .maslovbox import (
    MaslovBoxReport,
    SpectralProblem,
    compute_box,
    derivative_identity_residual,
    localize_eigenvalues_top,
    monotonicity_audit,
    omega_at_points,
    psi_point,
    psi_window,
    renormalized_count,
    shelf_path,
)
from .multilinear import BlockLambdaMatrix, Frame, build_A_tilde
from .problems import (
    CATALOG,
    ProblemConfig,
    builtin_catalog,
    config_from_dict,
    eval_expression,
    load_config_file,
    load_problem,
    parse_expression,
    robin_frame,
    serialize_expression,
)
from .propagation import (
    CoefficientField,
    FramePath,
    eval_companion_higher_order,
    eval_companion_second_order,
    integrate_frame,
    propagate_chain,
    propagate_lambda_grid,
)
from .winding import (
    CrossingRecord,
    PathSamples,
    detect_crossings,
    p_point,
    winding_index,
)

__version__ = "0.1.0"
