"""Edge/cloud layer-partitioning engine."""

from repro.nn.graph import PartitionGraph
from repro.partition.deployment import (
    ALL_CLOUD,
    ALL_EDGE,
    DEPLOYMENT_KINDS,
    SPLIT,
    DeploymentMetrics,
    DeploymentOption,
)
from repro.partition.partitioner import PartitionAnalyzer, PartitionEvaluation

__all__ = [
    "ALL_CLOUD",
    "ALL_EDGE",
    "DEPLOYMENT_KINDS",
    "SPLIT",
    "DeploymentMetrics",
    "DeploymentOption",
    "PartitionAnalyzer",
    "PartitionEvaluation",
    "PartitionGraph",
]
