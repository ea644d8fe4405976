"""LENS core: partition-aware evaluation, search results, runtime adaptation."""

from repro.core.evaluation import PartitionAwareEvaluator
from repro.core.related_work import (
    FEATURES,
    RELATED_WORKS,
    RelatedWork,
    feature_matrix,
    feature_matrix_headers,
)
from repro.core.results import METRIC_NAMES, CandidateEvaluation, SearchResult
from repro.core.runtime import (
    DominanceInterval,
    DynamicDeploymentController,
    RuntimeComparison,
    ThresholdAnalysis,
    deployment_energy,
    deployment_latency,
    deployment_metric_value,
    pairwise_threshold,
    simulate_runtime,
)

__all__ = [
    "PartitionAwareEvaluator",
    "FEATURES",
    "RELATED_WORKS",
    "RelatedWork",
    "feature_matrix",
    "feature_matrix_headers",
    "METRIC_NAMES",
    "CandidateEvaluation",
    "SearchResult",
    "DominanceInterval",
    "DynamicDeploymentController",
    "RuntimeComparison",
    "ThresholdAnalysis",
    "deployment_energy",
    "deployment_latency",
    "deployment_metric_value",
    "pairwise_threshold",
    "simulate_runtime",
]
