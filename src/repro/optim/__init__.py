"""Multi-objective Bayesian optimization substrate."""

from repro.optim.acquisition import (
    ACQUISITION_STRATEGIES,
    UCB_BETA,
    acquisition_scores,
)
from repro.optim.epdc import (
    DEFAULT_BATCH_PENALTY,
    DEFAULT_EPDC_SAMPLES,
    epdc_score_matrix,
    epdc_scores,
    pareto_distance_contributions,
    select_batch,
)
from repro.optim.gp import (
    LENGTHSCALE_GRID,
    GaussianProcess,
    matern52,
    pairwise_distances,
)
from repro.optim.gp_bank import GPBank
from repro.optim.mobo import (
    MultiObjectiveBayesianOptimizer,
    ObservedPoint,
    OptimizationResult,
)
from repro.optim.pareto import (
    ArchiveEntry,
    FrontHistory,
    FrontHistoryEntry,
    ParetoArchive,
    combined_front_composition,
    compute_front_history,
    coverage,
    default_reference_point,
    dominates,
    hypervolume,
    hypervolume_2d,
    hypervolume_3d,
    pareto_front_mask,
)
from repro.optim.scalarization import (
    chebyshev_scalarize,
    normalize_objectives,
    random_weights,
)

__all__ = [
    "ACQUISITION_STRATEGIES",
    "UCB_BETA",
    "acquisition_scores",
    "LENGTHSCALE_GRID",
    "GaussianProcess",
    "GPBank",
    "matern52",
    "pairwise_distances",
    "MultiObjectiveBayesianOptimizer",
    "ObservedPoint",
    "OptimizationResult",
    "ArchiveEntry",
    "DEFAULT_BATCH_PENALTY",
    "DEFAULT_EPDC_SAMPLES",
    "FrontHistory",
    "FrontHistoryEntry",
    "ParetoArchive",
    "combined_front_composition",
    "compute_front_history",
    "coverage",
    "default_reference_point",
    "dominates",
    "epdc_score_matrix",
    "epdc_scores",
    "hypervolume",
    "hypervolume_2d",
    "hypervolume_3d",
    "pareto_distance_contributions",
    "pareto_front_mask",
    "select_batch",
    "chebyshev_scalarize",
    "normalize_objectives",
    "random_weights",
]
