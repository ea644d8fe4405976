"""Deployment-preference sweeps over wireless conditions (Fig. 2, Table I).

The motivational example evaluates AlexNet's deployment options — All-Edge,
splitting at Pool5 or FC6, and All-Cloud — across upload throughputs and two
device/radio configurations (GPU with WiFi, CPU with LTE), for both latency
and energy.  The helpers here run the same sweeps for any architecture and
summarise which option wins where, including per-region summaries driven by
the Table I throughput catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.engine import EvaluationEngine, default_engine
from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.architecture import Architecture
from repro.partition.partitioner import PartitionEvaluation
from repro.wireless.channel import WirelessChannel
from repro.wireless.regions import Region


@dataclass(frozen=True)
class DeploymentConfiguration:
    """One device/radio pairing of the motivational example (e.g. GPU/WiFi)."""

    label: str
    predictor: BaseLayerPredictor
    technology: str
    round_trip_s: float = 0.01


@dataclass(frozen=True)
class SweepRow:
    """Best deployment option for one (configuration, throughput, metric) cell."""

    configuration: str
    uplink_mbps: float
    metric: str
    best_option: str
    best_value: float
    all_edge_value: float
    all_cloud_value: float

    def to_dict(self) -> Dict:
        return {
            "configuration": self.configuration,
            "uplink_mbps": self.uplink_mbps,
            "metric": self.metric,
            "best_option": self.best_option,
            "best_value": self.best_value,
            "all_edge_value": self.all_edge_value,
            "all_cloud_value": self.all_cloud_value,
        }


def sweep_deployments(
    architecture: Architecture,
    configurations: Sequence[DeploymentConfiguration],
    uplink_values_mbps: Sequence[float],
    metrics: Sequence[str] = ("latency", "energy"),
    engine: Optional[EvaluationEngine] = None,
) -> List[SweepRow]:
    """Best deployment per configuration, throughput and metric (Fig. 2).

    Returns one row per (configuration, throughput, metric) combination with
    the winning option's label and value, plus the All-Edge / All-Cloud
    values for reference.  The sweep is batched through the evaluation
    engine: each configuration's per-layer predictions are computed once and
    reused across every throughput value.
    """
    engine = engine or default_engine()
    rows: List[SweepRow] = []
    for configuration in configurations:
        channels = [
            WirelessChannel.create(
                technology=configuration.technology,
                uplink_mbps=float(uplink),
                round_trip_s=configuration.round_trip_s,
            )
            for uplink in uplink_values_mbps
        ]
        evaluations = engine.sweep_channels(
            architecture, configuration.predictor, channels
        )
        for uplink, evaluation in zip(uplink_values_mbps, evaluations):
            for metric in metrics:
                best = evaluation.best_for(metric)
                if metric == "latency":
                    best_value = best.latency_s
                    all_edge_value = evaluation.all_edge.latency_s
                    all_cloud_value = evaluation.all_cloud.latency_s
                else:
                    best_value = best.energy_j
                    all_edge_value = evaluation.all_edge.energy_j
                    all_cloud_value = evaluation.all_cloud.energy_j
                rows.append(
                    SweepRow(
                        configuration=configuration.label,
                        uplink_mbps=float(uplink),
                        metric=metric,
                        best_option=best.option.label,
                        best_value=float(best_value),
                        all_edge_value=float(all_edge_value),
                        all_cloud_value=float(all_cloud_value),
                    )
                )
    return rows


@dataclass(frozen=True)
class RegionalPreferenceRow:
    """Preferred deployment for one region under one configuration and metric."""

    region: str
    uplink_mbps: float
    configuration: str
    metric: str
    best_option: str

    def to_dict(self) -> Dict:
        return {
            "region": self.region,
            "uplink_mbps": self.uplink_mbps,
            "configuration": self.configuration,
            "metric": self.metric,
            "best_option": self.best_option,
        }


def regional_preferences(
    architecture: Architecture,
    configurations: Sequence[DeploymentConfiguration],
    regions: Sequence[Region],
    metrics: Sequence[str] = ("latency", "energy"),
    engine: Optional[EvaluationEngine] = None,
) -> List[RegionalPreferenceRow]:
    """Preferred deployment option per region (Table I).

    For every region the architecture is evaluated at the region's average
    experienced upload throughput under each device/radio configuration, and
    the option minimising each metric is reported.  Each configuration's
    whole region set is costed in one batched ``sweep_channels`` call (the
    per-layer predictions are fetched once per configuration).
    """
    engine = engine or default_engine()
    regions = list(regions)
    configurations = list(configurations)
    evaluations: Dict[Tuple[int, int], PartitionEvaluation] = {}
    for ci, configuration in enumerate(configurations):
        channels = [
            WirelessChannel.create(
                technology=configuration.technology,
                uplink_mbps=region.avg_uplink_mbps,
                round_trip_s=configuration.round_trip_s,
            )
            for region in regions
        ]
        for ri, evaluation in enumerate(
            engine.sweep_channels(architecture, configuration.predictor, channels)
        ):
            evaluations[(ri, ci)] = evaluation
    rows: List[RegionalPreferenceRow] = []
    for ri, region in enumerate(regions):
        for ci, configuration in enumerate(configurations):
            evaluation = evaluations[(ri, ci)]
            for metric in metrics:
                best = evaluation.best_for(metric)
                rows.append(
                    RegionalPreferenceRow(
                        region=region.name,
                        uplink_mbps=region.avg_uplink_mbps,
                        configuration=configuration.label,
                        metric=metric,
                        best_option=best.option.label,
                    )
                )
    return rows


def preference_changes(rows: Sequence[RegionalPreferenceRow]) -> int:
    """Number of distinct preferred options across a set of regional rows.

    Table I's takeaway is variability: the same application prefers different
    deployments in different regions.  This helper quantifies it.
    """
    return len({row.best_option for row in rows})
