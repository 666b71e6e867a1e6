"""Copula-entropy variable selection for right-censored survival data.

The package provides a non-parametric copula entropy estimator (rank-based
empirical copula + k-nearest-neighbor entropy), a right-censored Weibull
data simulator, CE-based covariate ranking and selection, a Weibull
accelerated failure time regression, MAE / concordance-index evaluation,
and a CLI that reproduces the full experiment pipeline.
"""

__version__ = "0.1.0"

from .copula_entropy import (  # noqa: E402
    EstimatorConfig,
    as_sample_matrix,
    copula_entropy,
    empirical_copula,
    knn_entropy,
)
from .errors import (  # noqa: E402
    CesurvError,
    DatasetLoadError,
    InvalidInputError,
    NoEventsError,
    NonConvergenceError,
    NumericalError,
    UndefinedMetricError,
)
from .survsim import SimConfig, SurvivalDataset, simulate  # noqa: E402
from .varselect import VariableRanking, rank_variables, select_variables  # noqa: E402
from .aft import AFTModel, fit, loglik_and_gradient, predict_median  # noqa: E402
from .metrics import EvalReport, c_index, mae  # noqa: E402
from .dataio import DatasetSpec, bundled_dataset_spec, load_dataset, save_dataset  # noqa: E402
from .experiment import ExperimentReport, evaluate, run_experiment  # noqa: E402

__all__ = [
    "__version__",
    "EstimatorConfig", "as_sample_matrix", "copula_entropy", "empirical_copula", "knn_entropy",
    "CesurvError", "DatasetLoadError", "InvalidInputError", "NoEventsError",
    "NonConvergenceError", "NumericalError", "UndefinedMetricError",
    "SimConfig", "SurvivalDataset", "simulate",
    "VariableRanking", "rank_variables", "select_variables",
    "AFTModel", "fit", "loglik_and_gradient", "predict_median",
    "EvalReport", "c_index", "mae",
    "DatasetSpec", "bundled_dataset_spec", "load_dataset", "save_dataset",
    "ExperimentReport", "evaluate", "run_experiment",
]
