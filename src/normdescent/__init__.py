"""Steepest descent under non-Euclidean norms, with the matching
smoothness-geometry analysis and benchmark experiments."""

from .analysis import (
    BlockReport,
    SmoothnessReport,
    analyze,
    block_analysis,
    improvement_ratio,
    linf_bounds,
    linf_bruteforce,
    lsep_exact_2x2,
    lsep_rowsum,
    rho_diag,
    smoothness_constant,
)
from .experiments import GridCell, GridConfig, grid_csv_lines, run_quad_grid
from .matrices import (
    EigenDecomposition,
    MatrixFormatError,
    OrthogonalMatrix,
    SkewMatrix,
    SymMatrix,
    eigh,
    exp_skew,
    format_matrix_text,
    is_psd,
    parse_matrix_text,
    random_skew,
    rotate_spectrum,
    rotated_hessian,
)
from .norms import (
    BlockMax,
    BlockPartition,
    Euclidean,
    Max,
    NormKind,
    One,
    WeightedDiag,
    dual_norm,
    gradient_density,
    kind_from_json,
    kind_to_json,
    norm,
    sign_unit,
    steepest_op,
)
from .optimizers import (
    AdamConfig,
    Constant,
    DivergenceError,
    InvSqrt,
    RateCheck,
    Trace,
    adam_gamma,
    run_adam_family,
    run_normalized_sd,
    run_relaxed_nsd,
    run_signsgd,
    run_steepest_descent,
    steepest_descent_batch,
    steepest_descent_stack,
    verify_rate_bounds,
)
from .problems import (
    CoshProblem,
    Oracle,
    OverflowGuardError,
    QuadraticProblem,
    cosh_eval,
    cosh_oracle,
    make_quadratic,
    noisy_grad,
    quad_eval,
    quad_noisy_oracle,
    quad_oracle,
)

__version__ = "0.1.0"
