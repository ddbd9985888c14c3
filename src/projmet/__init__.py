"""Metrisability of plane projective structures.

Given a second-order ODE cubic in the first derivative, a metric, or the
cubic coefficients directly, this package computes the point invariants
controlling whether the paths are the geodesics of some metric, runs the
rank-stratified obstruction test, cross-checks it against an independent
tractor-determinant pipeline, and reconstructs a compatible metric when one
exists.
"""

from .jets import (
    Jet,
    JetError,
    InsufficientOrderError,
    SingularEvaluationError,
    to_scalar,
    exp,
    log,
    sin,
    cos,
    sqrt,
)
from .expressions import (
    ExprError,
    ExprSyntaxError,
    UnknownIdentifierError,
    NonIntegerExponentError,
    ExactModeError,
    parse_expr,
    as_expr,
    to_string,
    differentiate,
    eval_jet,
    eval_scalar,
    has_transcendental,
)
from .model import (
    NotCubicError,
    DegenerateMetricError,
    ProjectiveStructure,
    MetricInput,
    ode_from_metric,
    ode_from_lambda,
    section_to_metric,
    liouville_residual,
)
from .linalg import det, rank_kernel, RankResult
from .invariants import (
    VERDICT_FLAT,
    VERDICT_METRISABLE,
    VERDICT_NOT,
    VERDICT_DEGENERATE,
    VERDICT_INCONCLUSIVE,
    JetStructure,
    nu5,
    cov_deriv,
    curvature,
    matrix_M,
    matrix_Mmax,
    sixth_order_E,
    stratified_obstruction,
    cartan_stabilize,
    degenerate_obstruction,
    genericity_P,
    kernel_has_nondegenerate,
    PointReport,
    ObstructionReport,
    analyze_point,
    decide_metrisability,
)
from .tractor import (
    ContractionLayoutError,
    AffineConnection,
    schouten,
    TractorData,
    tractor_data,
    theta_bar,
    theta_values,
    det_by_contraction,
    projective_change,
    change_connection,
)
from .recovery import (
    RecoveryError,
    DegenerateWitnessError,
    PathDependenceError,
    DegenerateFormError,
    GridSpec,
    PsiSection,
    RecoveredMetric,
    RecoveryResult,
    initial_section,
    connection_values,
    transport,
    reconstruct_metric,
    roundtrip_residual,
    recover_metric,
)

__version__ = "0.1.0"

__all__ = [
    "Jet", "JetError", "InsufficientOrderError", "SingularEvaluationError",
    "to_scalar", "exp", "log", "sin", "cos", "sqrt",
    "ExprError", "ExprSyntaxError", "UnknownIdentifierError",
    "NonIntegerExponentError", "ExactModeError", "parse_expr", "as_expr",
    "to_string", "differentiate", "eval_jet", "eval_scalar",
    "has_transcendental",
    "NotCubicError", "DegenerateMetricError", "ProjectiveStructure",
    "MetricInput", "ode_from_metric", "ode_from_lambda",
    "section_to_metric", "liouville_residual",
    "det", "rank_kernel", "RankResult",
    "VERDICT_FLAT", "VERDICT_METRISABLE", "VERDICT_NOT",
    "VERDICT_DEGENERATE", "VERDICT_INCONCLUSIVE",
    "JetStructure", "nu5", "cov_deriv", "curvature", "matrix_M",
    "matrix_Mmax", "sixth_order_E", "stratified_obstruction",
    "cartan_stabilize", "degenerate_obstruction", "genericity_P",
    "kernel_has_nondegenerate", "PointReport", "ObstructionReport",
    "analyze_point", "decide_metrisability",
    "ContractionLayoutError", "AffineConnection", "schouten", "TractorData",
    "tractor_data", "theta_bar", "theta_values", "det_by_contraction",
    "projective_change", "change_connection",
    "RecoveryError", "DegenerateWitnessError", "PathDependenceError",
    "DegenerateFormError", "GridSpec", "PsiSection", "RecoveredMetric",
    "RecoveryResult", "initial_section", "connection_values", "transport",
    "reconstruct_metric", "roundtrip_residual", "recover_metric",
]
