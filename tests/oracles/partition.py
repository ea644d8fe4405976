"""Scalar reference of the paper's Algorithm 1 (partition costing).

:meth:`repro.partition.partitioner.PartitionAnalyzer.evaluate_batch` is the
only Algorithm 1 implementation in the library.  This module keeps the
per-candidate loop it replaced — one architecture, one channel, one cut at
a time — as the oracle the parity tests and benchmark gates compare it
with:

* the cut rule, one boundary at a time (:func:`allows_cut_after`,
  :func:`legal_cut_indices`, :func:`blocked_cut_indices` and
  :func:`describe`), the scalar form of
  :meth:`repro.nn.graph.PartitionGraph.legal_cut_mask`;
* the channel cost of one transfer, Eq. 3-6 (:func:`transmission_latency_s`,
  :func:`transmission_energy_j`, :func:`communication_latency_s`,
  :func:`communication_energy_j` and :func:`cost`), with the float
  operations of the library's former scalar channel methods, in their
  order;
* :func:`identify_partition_points` — the candidate cut enumeration
  (activation-producing layers whose output is smaller than the raw input
  and whose boundary the dataflow graph allows);
* :func:`evaluate` — every deployment option of one architecture under the
  analyzer's channel, in the library's option order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from oracles.architecture import summarize

from repro.nn.architecture import Architecture, LayerSummary
from repro.nn.graph import PartitionGraph
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.partition.partitioner import PartitionAnalyzer, PartitionEvaluation
from repro.utils.units import mbps_to_bytes_per_second
from repro.utils.validation import require_non_negative
from repro.wireless.channel import WirelessChannel


# ---------------------------------------------------------------------- cut rule
def allows_cut_after(graph: PartitionGraph, index: int) -> bool:
    """Whether the boundary after layer ``index`` is a single-tensor cut.

    A skip edge ``(src, dst)`` forbids every boundary it spans strictly
    (``src < index < dst``); a cut exactly at the edge's source remains
    legal because the transmitted tensor is the skip tensor itself.
    """
    if not -1 <= index < graph.num_layers:
        raise IndexError(f"cut index {index} out of range [-1, {graph.num_layers})")
    return all(not (src < index < dst) for src, dst in graph.skip_edges)


def legal_cut_indices(graph: PartitionGraph) -> List[int]:
    """Every structurally legal cut boundary, in layer order.

    The final boundary is excluded — cutting after the last layer is the
    All-Edge deployment, not a split.
    """
    return [i for i in range(graph.num_layers - 1) if allows_cut_after(graph, i)]


def blocked_cut_indices(graph: PartitionGraph) -> List[int]:
    """Boundaries forbidden because a skip edge spans them."""
    return [i for i in range(graph.num_layers - 1) if not allows_cut_after(graph, i)]


def describe(graph: PartitionGraph) -> str:
    """Human-readable one-liner of a graph's cut legality."""
    if graph.is_linear:
        return f"linear chain of {graph.num_layers} layers (all cuts legal)"
    return (
        f"{graph.num_layers} layers, {len(graph.skip_edges)} skip edges, "
        f"{len(blocked_cut_indices(graph))} of {graph.num_layers - 1} "
        "boundaries blocked"
    )


# ---------------------------------------------------------------------- Eq. 3-6
def transmission_latency_s(channel: WirelessChannel, num_bytes: float) -> float:
    """``L_Tx``: time to push ``num_bytes`` through the uplink."""
    require_non_negative(num_bytes, "num_bytes")
    return num_bytes / mbps_to_bytes_per_second(channel.uplink_mbps)


def transmission_energy_j(channel: WirelessChannel, num_bytes: float) -> float:
    """``E_Tx = P_Tx * L_Tx`` for a transfer of ``num_bytes``."""
    return channel.transmission_power_w() * transmission_latency_s(channel, num_bytes)


def communication_latency_s(channel: WirelessChannel, num_bytes: float) -> float:
    """``L_comm = L_Tx + L_RT`` for a transfer of ``num_bytes``."""
    return transmission_latency_s(channel, num_bytes) + channel.round_trip_s


def communication_energy_j(channel: WirelessChannel, num_bytes: float) -> float:
    """``E_comm = E_Tx`` for a transfer of ``num_bytes``."""
    return transmission_energy_j(channel, num_bytes)


@dataclass(frozen=True)
class CommunicationCost:
    """Latency and energy of one edge-to-cloud transfer."""

    transmission_latency_s: float
    round_trip_s: float
    energy_j: float

    @property
    def latency_s(self) -> float:
        """Total communication latency (transmission plus round trip)."""
        return self.transmission_latency_s + self.round_trip_s


def cost(channel: WirelessChannel, num_bytes: float) -> CommunicationCost:
    """Full communication cost record for a transfer of ``num_bytes``."""
    return CommunicationCost(
        transmission_latency_s=transmission_latency_s(channel, num_bytes),
        round_trip_s=channel.round_trip_s,
        energy_j=transmission_energy_j(channel, num_bytes),
    )


# ---------------------------------------------------------------------- Algorithm 1
def identify_partition_points(
    summaries: Sequence[LayerSummary],
    input_bytes: float,
    graph: Optional[PartitionGraph] = None,
) -> List[int]:
    """Indices of layers whose output may be transmitted to the cloud.

    A layer qualifies when it produces an activation tensor (structural layers
    such as ``flatten`` are skipped), when — the paper's rule — its output is
    strictly smaller than the raw network input, and when the optional :class:`~repro.nn.graph.PartitionGraph`
    allows a cut at its boundary (no skip edge spans it).  ``graph=None``
    keeps the linear-chain behaviour: every boundary is legal.  The final
    layer is excluded: splitting after it is the All-Edge deployment.
    """
    candidates: List[int] = []
    last_index = len(summaries) - 1
    check_graph = graph is not None and not graph.is_linear
    for summary in summaries:
        if summary.index >= last_index:
            continue
        if not summary.is_partition_candidate:
            continue
        if summary.output_bytes >= input_bytes:
            continue
        if check_graph and not allows_cut_after(graph, summary.index):
            continue
        candidates.append(summary.index)
    return candidates


def evaluate(
    analyzer: PartitionAnalyzer,
    architecture: Architecture,
    predictions: Optional[np.ndarray] = None,
) -> PartitionEvaluation:
    """Cost every deployment option of ``architecture`` under ``analyzer``.

    Same contract as :meth:`PartitionAnalyzer.evaluate`, with the
    architecture's own cut-legality graph; ``predictions`` optionally
    supplies the ``(num_layers, 2)`` ``(latency, power)`` array.
    """
    summaries = summarize(architecture)
    if predictions is None:
        predictions = analyzer.predictor.predict_architecture(architecture)
    if len(predictions) != len(summaries):
        raise ValueError(
            f"expected {len(summaries)} layer predictions, got {len(predictions)}"
        )

    latencies = predictions[:, 0]
    energies = latencies * predictions[:, 1]
    output_bytes = np.array([s.output_bytes for s in summaries])
    cumulative_latency = np.cumsum(latencies)
    cumulative_energy = np.cumsum(energies)
    input_bytes = architecture.input_bytes
    channel = analyzer.channel

    options: List[DeploymentMetrics] = []

    # --- All-Cloud: upload the raw input, no edge compute.
    cloud_cost = cost(channel, input_bytes)
    options.append(
        DeploymentMetrics(
            option=DeploymentOption.all_cloud(),
            latency_s=cloud_cost.latency_s,
            energy_j=cloud_cost.energy_j,
            edge_latency_s=0.0,
            edge_energy_j=0.0,
            comm_latency_s=cloud_cost.latency_s,
            comm_energy_j=cloud_cost.energy_j,
            transferred_bytes=float(input_bytes),
        )
    )

    # --- All-Edge: run everything locally, no transmission.
    options.append(
        DeploymentMetrics(
            option=DeploymentOption.all_edge(),
            latency_s=float(cumulative_latency[-1]),
            energy_j=float(cumulative_energy[-1]),
            edge_latency_s=float(cumulative_latency[-1]),
            edge_energy_j=float(cumulative_energy[-1]),
            comm_latency_s=0.0,
            comm_energy_j=0.0,
            transferred_bytes=0.0,
        )
    )

    # --- Splits at every candidate partition point (graph-aware: cuts
    # that would split a skip connection are never proposed).
    partition_points = identify_partition_points(
        summaries, input_bytes, graph=architecture.partition_graph()
    )
    for index in partition_points:
        transfer_bytes = float(output_bytes[index])
        comm_cost = cost(channel, transfer_bytes)
        edge_latency = float(cumulative_latency[index])
        edge_energy = float(cumulative_energy[index])
        options.append(
            DeploymentMetrics(
                option=DeploymentOption.split_after(index, summaries[index].name),
                latency_s=edge_latency + comm_cost.latency_s,
                energy_j=edge_energy + comm_cost.energy_j,
                edge_latency_s=edge_latency,
                edge_energy_j=edge_energy,
                comm_latency_s=comm_cost.latency_s,
                comm_energy_j=comm_cost.energy_j,
                transferred_bytes=transfer_bytes,
            )
        )

    return PartitionEvaluation(
        options=tuple(options), partition_point_indices=tuple(partition_points)
    )
