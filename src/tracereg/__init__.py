"""Low-rank trace regression under general sampling distributions.

A numpy library for estimating a low-rank matrix from noisy trace
inner-product observations: structured measurement ensembles, nuclear
norm penalized and factored solvers, cross-validated model selection,
calibration of the regularization level, and diagnostics for the
recovery theory's constants and thresholds.
"""

from .linalg import (
    SvdFactors,
    matrix_norm,
    numerical_rank,
    operator_norm,
    project_parallel,
    project_perp,
    soft_threshold,
    svd,
    trace_inner,
)
from .rng import stream
from .sampling import (
    ENSEMBLES,
    Dataset,
    DenseSet,
    EnsembleConstants,
    EntrySet,
    FactoredMeasurement,
    GaussianEnsemble,
    MatrixCompletion,
    MeasurementSet,
    MultiTask,
    RankOneSet,
    RowVectorSet,
    generate_dataset,
    generate_ground_truth,
    load_dataset,
    sample_inner_products,
    save_dataset,
)
from .solvers import (
    Estimate,
    GoodnessCheck,
    SolverConfig,
    check_goodness,
    lambda_max,
    objective,
    solve_convex,
    solve_path,
    solve_factored,
    solve_noiseless,
)
from .crossval import CvResult, FoldPlan, cv_select, lambda_grid, make_folds
from .theory import (
    CalibrationReport,
    RademacherSketch,
    RecoveryThreshold,
    RscProbeReport,
    bernstein_bound,
    bernstein_expectation_bound,
    calibrate_lambda0,
    error_bound_rhs,
    estimate_orlicz,
    exact_recovery_threshold,
    gaussian_square_mgf,
    rademacher_sketch,
    rsc_probe,
    sample_constraint_set,
    truncation_constant,
)

__version__ = "0.1.0"
