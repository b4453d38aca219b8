"""Iterative regularization of ill-posed linear systems over the
shift-and-invert rational Krylov subspace, with a conjugate-gradient
baseline on the polynomial subspace, discrepancy-principle stopping,
spectral diagnostics, and reproduction harnesses."""

from .cgne import cgne_init, cgne_step, run_cgne
from .diagnostics import (
    OrthogonalityReport,
    ResidualFunction,
    RitzSpectrum,
    build_basis,
    check_interlacing,
    orthogonality_audit,
    projected_gram,
    residual_function_eval,
    ritz_values,
    rprime_at_zero,
)
from .exceptions import DataFormatError, DimensionError, NumericalError
from .experiments import (
    CompareResult,
    DiagnosticsReport,
    RateCheckConfig,
    RateCheckResult,
    RateRecord,
    fit_rate,
    run_compare,
    run_diagnostics,
    run_ratecheck,
)
from .operators import (
    DenseOperator,
    DiagonalOperator,
    LinearOperator,
    MatrixFreeOperator,
    load_dense_operator,
    load_diagonal_operator,
    load_vector,
    save_dense_operator,
    save_vector,
)
from .problems import (
    Problem,
    add_noise,
    load_problem,
    multiplication_problem,
    random_problem,
)
from .sine import ShiftSolver, build_shift_solver, run_sine, sine_init, sine_step
from .spaces import InnerProductSpace
from .stopping import (
    EPS_BREAKDOWN,
    KrylovState,
    RunReport,
    StoppingRule,
    detect_breakdown,
    discrepancy_met,
    drive,
)

__version__ = "0.1.0"

__all__ = [
    "cgne_init", "cgne_step", "run_cgne",
    "OrthogonalityReport", "ResidualFunction", "RitzSpectrum",
    "build_basis", "check_interlacing", "orthogonality_audit",
    "projected_gram", "residual_function_eval", "ritz_values",
    "rprime_at_zero",
    "DataFormatError", "DimensionError", "NumericalError",
    "CompareResult", "DiagnosticsReport", "RateCheckConfig",
    "RateCheckResult", "RateRecord", "fit_rate", "run_compare",
    "run_diagnostics", "run_ratecheck",
    "DenseOperator", "DiagonalOperator", "LinearOperator",
    "MatrixFreeOperator", "load_dense_operator", "load_diagonal_operator",
    "save_dense_operator",
    "Problem", "add_noise", "load_problem", "load_vector",
    "multiplication_problem", "random_problem", "save_vector",
    "ShiftSolver", "build_shift_solver",
    "run_sine", "sine_init", "sine_step",
    "InnerProductSpace",
    "EPS_BREAKDOWN", "KrylovState", "RunReport", "StoppingRule",
    "detect_breakdown", "discrepancy_met", "drive",
]
