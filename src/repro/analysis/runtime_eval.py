"""Trace-driven runtime evaluation of deployed models (paper Fig. 8).

Given a model selected from a Pareto frontier, this module identifies its
relevant deployment options (:func:`select_runtime_options`, also behind
``repro serve``), runs the pre-deployment threshold analysis, and replays a
throughput trace to compare fixed deployments against the dynamic
throughput-tracking switcher — reproducing the model A / model B study of the
paper's runtime analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.runtime import RuntimeComparison, ThresholdAnalysis, simulate_runtime
from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.architecture import Architecture
from repro.partition.deployment import DeploymentMetrics
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel
from repro.wireless.traces import ThroughputTrace


@dataclass(frozen=True)
class RuntimeStudy:
    """Full record of one model's runtime analysis.

    Attributes
    ----------
    model_label:
        Identifier of the analysed model (e.g. ``"model A"``).
    metric:
        The metric being optimised at runtime (``"latency"`` or ``"energy"``).
    switching_threshold_mbps:
        The throughput threshold separating the two dominant options, when a
        single threshold exists.
    comparison:
        The trace-replay results (cumulative metric per strategy).
    options:
        The deployment options that took part in the analysis.
    """

    model_label: str
    metric: str
    switching_threshold_mbps: Optional[float]
    comparison: RuntimeComparison
    options: Sequence[DeploymentMetrics]

    def to_dict(self) -> Dict:
        return {
            "model_label": self.model_label,
            "metric": self.metric,
            "switching_threshold_mbps": self.switching_threshold_mbps,
            "comparison": self.comparison.to_dict(),
            "options": [m.to_dict() for m in self.options],
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


def run_runtime_study(
    model_label: str,
    architecture: Architecture,
    predictor: BaseLayerPredictor,
    channel: WirelessChannel,
    trace: ThroughputTrace,
    metric: str = "energy",
    include_all_cloud: bool = False,
    include_all_edge: bool = True,
) -> RuntimeStudy:
    """Run the Fig. 8 analysis for one model over one throughput trace."""
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
    comparison = simulate_runtime(analysis, trace)
    return RuntimeStudy(
        model_label=model_label,
        metric=metric,
        switching_threshold_mbps=analysis.switching_threshold(),
        comparison=comparison,
        options=tuple(options),
    )
