"""heteromc: joint low-rank completion of heterogeneous multi-source matrices.

Several data sources (continuous ratings, counts, binary feedback, ...)
share one set of rows.  heteromc stacks them into a single collective
matrix, models each source with a natural exponential family or a Lipschitz
loss, and recovers the joint low-rank parameter matrix by nuclear-norm
penalized fitting with an accelerated inexact proximal solver.

The ``demos/`` scripts in the repository walk through each capability; the
``heteromc`` command exposes generation, fitting and the experiment harness.
"""

from .families import (
    DomainError,
    ExpFamilyModel,
    bregman,
    g_prime,
    g_second,
    g_value,
    sample,
    strong_convexity_bounds,
)
from .data import (
    BlockLayout,
    CollectiveMatrix,
    ObservationSet,
    SamplingScheme,
    SyntheticConfig,
    cold_start_transform,
    empirical_marginals,
    estimate_mu,
    generate_synthetic,
    mask_sample,
    observe_from_model,
    weighted_frobenius_sq,
)
from .objectives import (
    LipschitzLoss,
    bregman_fit,
    empirical_risk,
    grad_neg_log_likelihood,
    grad_operator_norm,
    lipschitz_grad_constant,
    map_binary_labels,
    neg_log_likelihood,
    nuclear_norm,
)
from .lowrank import (
    ThinFactors,
    approx_svt,
    power_method,
    qr_orthonormalize,
    rank1_svd,
    svt_exact,
)
from .solvers import (
    FitResult,
    NumericalError,
    SolverConfig,
    apg_solve,
    lambda_general_loss,
    lambda_heuristic,
    plais_impute,
    theory_bound,
    tight_lipschitz,
)
from .bench import (
    ExperimentSpec,
    MetricRecord,
    rate_regression,
    relative_error,
    run_cold_start,
    run_experiment,
    sign_test_pvalue,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BlockLayout",
    "CollectiveMatrix",
    "DomainError",
    "ExpFamilyModel",
    "ExperimentSpec",
    "FitResult",
    "LipschitzLoss",
    "MetricRecord",
    "NumericalError",
    "ObservationSet",
    "SamplingScheme",
    "SolverConfig",
    "SyntheticConfig",
    "ThinFactors",
    "apg_solve",
    "approx_svt",
    "bregman",
    "bregman_fit",
    "cold_start_transform",
    "empirical_marginals",
    "empirical_risk",
    "estimate_mu",
    "g_prime",
    "g_second",
    "g_value",
    "generate_synthetic",
    "grad_neg_log_likelihood",
    "grad_operator_norm",
    "lambda_general_loss",
    "lambda_heuristic",
    "lipschitz_grad_constant",
    "map_binary_labels",
    "mask_sample",
    "neg_log_likelihood",
    "nuclear_norm",
    "observe_from_model",
    "plais_impute",
    "power_method",
    "qr_orthonormalize",
    "rank1_svd",
    "rate_regression",
    "relative_error",
    "run_cold_start",
    "run_experiment",
    "sample",
    "sign_test_pvalue",
    "strong_convexity_bounds",
    "summarize",
    "svt_exact",
    "theory_bound",
    "tight_lipschitz",
    "weighted_frobenius_sq",
]
