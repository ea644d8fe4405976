"""Model selection and deployment packaging from a LENS Pareto set.

LENS hands the user a Pareto-optimal *set* of architectures; picking the one
to deploy is the user's last step, and shipping it to the edge device requires
the runtime-adaptation artefacts of §IV-E (the chosen deployment, its
companions, and the throughput thresholds at which to switch).  This module
provides that last mile:

* :func:`select_by_constraints` — pick the best candidate subject to upper
  bounds on error / energy / latency;
* :func:`select_knee_point` — pick the candidate closest to the (normalised)
  ideal point, a standard "knee" heuristic when no constraints are given;
* :func:`select_runtime_options` — a model's best deployment plus the
  companion options worth tracking at runtime (also behind the Fig. 8
  runtime study and ``repro serve``);
* :class:`DeploymentPackage` / :func:`build_deployment_package` — bundle the
  selected architecture with its deployment options, dominance intervals and
  switching thresholds, ready to drive the runtime controller on the device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.results import CandidateEvaluation, SearchResult
from repro.core.runtime import (
    DominanceInterval,
    DynamicDeploymentController,
    ThresholdAnalysis,
)
from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.architecture import Architecture
from repro.nn.search_space import LensSearchSpace
from repro.partition.deployment import DeploymentMetrics
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel
from repro.wireless.tracker import ThroughputTracker


def select_by_constraints(
    result: SearchResult,
    max_error_percent: Optional[float] = None,
    max_energy_mj: Optional[float] = None,
    max_latency_ms: Optional[float] = None,
    prefer: str = "error_percent",
) -> CandidateEvaluation:
    """Pick the best candidate satisfying the given upper bounds.

    Parameters
    ----------
    result:
        A search result (usually a LENS run).
    max_error_percent / max_energy_mj / max_latency_ms:
        Upper bounds; ``None`` means unconstrained.
    prefer:
        Metric minimised among the feasible candidates
        (``"error_percent"``, ``"energy_j"`` or ``"latency_s"``).

    Raises
    ------
    ValueError
        If no explored candidate satisfies every constraint.
    """
    feasible: List[CandidateEvaluation] = []
    for candidate in result:
        if max_error_percent is not None and candidate.error_percent >= max_error_percent:
            continue
        if max_energy_mj is not None and candidate.energy_mj >= max_energy_mj:
            continue
        if max_latency_ms is not None and candidate.latency_ms >= max_latency_ms:
            continue
        feasible.append(candidate)
    if not feasible:
        raise ValueError(
            "no explored candidate satisfies the constraints "
            f"(error < {max_error_percent}, energy < {max_energy_mj} mJ, "
            f"latency < {max_latency_ms} ms)"
        )
    return min(feasible, key=lambda c: c.metric(prefer))


def select_knee_point(
    result: SearchResult,
    metrics: Sequence[str] = ("error_percent", "energy_j"),
) -> CandidateEvaluation:
    """Pick the Pareto candidate closest to the normalised ideal point.

    Each metric is min-max normalised over the Pareto front; the candidate
    with the smallest Euclidean distance to the per-metric minima (the ideal
    point) is returned.  This is the conventional "knee" compromise when the
    user expresses no explicit constraints.
    """
    front = result.pareto_candidates(metrics)
    if not front:
        raise ValueError("the search result has no candidates to select from")
    matrix = np.array([[c.metric(m) for m in metrics] for c in front], dtype=float)
    lower = matrix.min(axis=0)
    span = matrix.max(axis=0) - lower
    span = np.where(span > 1e-12, span, 1.0)
    normalised = (matrix - lower) / span
    distances = np.linalg.norm(normalised, axis=1)
    return front[int(np.argmin(distances))]


@dataclass
class DeploymentPackage:
    """Everything needed to deploy one selected model on the edge device.

    Attributes
    ----------
    candidate:
        The selected candidate evaluation (genotype, objectives, deployment).
    architecture:
        The decoded architecture at the performance input shape.
    metric:
        The runtime metric the deployment adapts for (``"energy"`` or
        ``"latency"``).
    options:
        The deployment options the runtime controller switches between.
    dominance_intervals:
        Throughput intervals over which each option is the best choice.
    thresholds:
        Pairwise switching thresholds (Mbps) keyed by option-label pairs.
    expected_uplink_mbps:
        The design-time expectation the model was selected under.
    """

    candidate: CandidateEvaluation
    architecture: Architecture
    metric: str
    options: Sequence[DeploymentMetrics]
    dominance_intervals: Sequence[DominanceInterval]
    thresholds: Dict
    expected_uplink_mbps: float
    _analysis: ThresholdAnalysis = None

    def recommended_option(self, uplink_mbps: Optional[float] = None) -> DeploymentMetrics:
        """The option to use at a given throughput (default: the expectation)."""
        uplink = self.expected_uplink_mbps if uplink_mbps is None else uplink_mbps
        return self._analysis.best_option(uplink)

    def make_controller(
        self, tracker: Optional[ThroughputTracker] = None
    ) -> DynamicDeploymentController:
        """Instantiate the on-device dynamic deployment controller."""
        return DynamicDeploymentController(self._analysis, tracker=tracker)

    def to_dict(self) -> Dict:
        return {
            "candidate": self.candidate.to_dict(),
            "architecture": self.architecture.to_dict(),
            "metric": self.metric,
            "expected_uplink_mbps": self.expected_uplink_mbps,
            "options": [m.to_dict() for m in self.options],
            "dominance_intervals": [i.to_dict() for i in self.dominance_intervals],
            "thresholds": {
                " vs ".join(pair): value for pair, value in self.thresholds.items()
            },
        }


def select_runtime_options(
    architecture: Architecture,
    predictor: BaseLayerPredictor,
    channel: WirelessChannel,
    metric: str,
    include_all_cloud: bool = False,
    include_all_edge: bool = True,
) -> List[DeploymentMetrics]:
    """Deployment options worth tracking at runtime for one model.

    The paper considers each model's best partitioning option together with
    All-Edge (model A) or All-Cloud (model B); the flags select which
    companions to include.
    """
    analyzer = PartitionAnalyzer(predictor, channel)
    evaluation = analyzer.evaluate(architecture)
    best = evaluation.best_for(metric)
    options: List[DeploymentMetrics] = [best]
    if include_all_edge and evaluation.all_edge.option != best.option:
        options.append(evaluation.all_edge)
    if include_all_cloud and evaluation.all_cloud.option != best.option:
        options.append(evaluation.all_cloud)
    if len(options) < 2:
        # Ensure at least two options so there is something to switch between.
        options.append(
            evaluation.all_cloud
            if evaluation.all_edge.option == best.option
            else evaluation.all_edge
        )
    return options


def build_deployment_package(
    candidate: CandidateEvaluation,
    search_space: LensSearchSpace,
    predictor: BaseLayerPredictor,
    channel: WirelessChannel,
    metric: str = "energy",
    include_all_edge: bool = True,
    include_all_cloud: bool = True,
) -> DeploymentPackage:
    """Bundle a selected candidate with its runtime-adaptation artefacts.

    The candidate's architecture is re-analysed under the given channel; its
    best deployment for ``metric`` plus the requested companion options feed a
    :class:`ThresholdAnalysis`, whose thresholds and dominance intervals are
    what the paper's §IV-E precomputes before deployment.
    """
    architecture = search_space.decode_for_performance(candidate.genotype)
    options = select_runtime_options(
        architecture,
        predictor,
        channel,
        metric,
        include_all_cloud=include_all_cloud,
        include_all_edge=include_all_edge,
    )
    analysis = ThresholdAnalysis(
        options=options,
        power_model=channel.power_model,
        round_trip_s=channel.round_trip_s,
        metric=metric,
    )
    return DeploymentPackage(
        candidate=candidate,
        architecture=architecture,
        metric=metric,
        options=tuple(options),
        dominance_intervals=tuple(analysis.dominance_intervals()),
        thresholds=analysis.thresholds(),
        expected_uplink_mbps=channel.uplink_mbps,
        _analysis=analysis,
    )
