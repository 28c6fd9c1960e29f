"""Steepest descent under non-Euclidean norms, with the matching
smoothness-geometry analysis and benchmark experiments."""

from .analysis import (
    SmoothnessReport,
    analyze,
    linf_bruteforce,
    lsep_rowsum,
    rho_diag,
    smoothness_constant,
)
from .experiments import GridCell, GridConfig, grid_csv_lines, run_quad_grid
from .matrices import (
    MatrixFormatError,
    OrthogonalMatrix,
    SkewMatrix,
    SymMatrix,
    eigh,
    exp_skew,
    parse_matrix_text,
    random_skew,
    rotate_spectrum,
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
    norm,
    sign_unit,
    steepest_op,
)
from .optimizers import (
    AdamConfig,
    DivergenceError,
    RateCheck,
    Trace,
    adam_gamma,
    run_adam_family,
    run_normalized_sd,
    run_relaxed_nsd,
    run_signsgd,
    run_steepest_descent,
    steepest_descent_stack,
    verify_rate_bounds,
)
from .problems import (
    CoshProblem,
    Oracle,
    OverflowGuardError,
    cosh_oracle,
    make_quadratic,
    noisy_grad,
    quad_noisy_oracle,
    quad_oracle,
)

__version__ = "0.1.0"
