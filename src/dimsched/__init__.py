"""Black-box global optimization: classical BO and dimension-scheduled BO."""

from .acquisition import acquisition_objective, expected_improvement
from .direct import Bounds, DirectConfig, direct_minimize
from .gp import (
    Dataset,
    GpModel,
    KernelHyperparams,
    gp_augment,
    gp_fit,
    gp_predict,
    log_marginal_likelihood,
    lml_gradient,
    train_hyperparams,
)
from .objectives import (
    ObjectiveSpec,
    benchmark_catalog,
    make_lotka_volterra_objective,
    rk4_integrate,
    weighted_sse,
)
from .optimize import (
    Incumbent,
    IterationRecord,
    RunConfig,
    RunResult,
    initial_design,
    run_bo,
    run_dsa,
    run_dsa_parallel,
)
from .scheduler import compute_dimension_probabilities, sample_subset

__all__ = [
    "Bounds",
    "Dataset",
    "DirectConfig",
    "GpModel",
    "Incumbent",
    "IterationRecord",
    "KernelHyperparams",
    "ObjectiveSpec",
    "RunConfig",
    "RunResult",
    "acquisition_objective",
    "benchmark_catalog",
    "compute_dimension_probabilities",
    "direct_minimize",
    "expected_improvement",
    "gp_augment",
    "gp_fit",
    "gp_predict",
    "initial_design",
    "log_marginal_likelihood",
    "lml_gradient",
    "make_lotka_volterra_objective",
    "rk4_integrate",
    "run_bo",
    "run_dsa",
    "run_dsa_parallel",
    "sample_subset",
    "train_hyperparams",
    "weighted_sse",
]
