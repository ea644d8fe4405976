"""Multi-objective Bayesian optimization substrate."""

from repro.optim.acquisition import (
    ACQUISITION_STRATEGIES,
    acquisition_scores,
    expected_improvement,
    lcb_scores,
    mean_scores,
    thompson_scores,
)
from repro.optim.epdc import (
    DEFAULT_BATCH_PENALTY,
    DEFAULT_EPDC_SAMPLES,
    epdc_score_matrix,
    epdc_scores,
    pareto_distance_contributions,
    select_batch,
)
from repro.optim.gp import GaussianProcess
from repro.optim.gp_bank import GPBank
from repro.optim.kernels import (
    Kernel,
    Matern52Kernel,
    RBFKernel,
    pairwise_distances,
    pairwise_scaled_distances,
)
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
    non_dominated_sort,
    pareto_front_indices,
    pareto_front_mask,
)
from repro.optim.scalarization import (
    chebyshev_scalarize,
    normalize_objectives,
    random_weights,
    weighted_sum_scalarize,
)

__all__ = [
    "ACQUISITION_STRATEGIES",
    "acquisition_scores",
    "expected_improvement",
    "lcb_scores",
    "mean_scores",
    "thompson_scores",
    "GaussianProcess",
    "GPBank",
    "Kernel",
    "Matern52Kernel",
    "RBFKernel",
    "pairwise_distances",
    "pairwise_scaled_distances",
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
    "non_dominated_sort",
    "pareto_distance_contributions",
    "pareto_front_indices",
    "pareto_front_mask",
    "select_batch",
    "chebyshev_scalarize",
    "normalize_objectives",
    "random_weights",
    "weighted_sum_scalarize",
]
