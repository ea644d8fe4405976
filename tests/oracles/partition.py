"""Scalar reference of the paper's Algorithm 1 (partition costing).

:meth:`repro.partition.partitioner.PartitionAnalyzer.evaluate_batch` is the
only Algorithm 1 implementation in the library.  This module keeps the
per-candidate loop it replaced — one architecture, one channel, one cut at
a time — as the oracle the parity tests and benchmark gates compare it
with:

* :func:`identify_partition_points` — the candidate cut enumeration
  (activation-producing layers whose output is smaller than the raw input
  and whose boundary the dataflow graph allows);
* :func:`evaluate` — every deployment option of one architecture under the
  analyzer's channel, in the library's option order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from oracles.architecture import summarize

from repro.nn.architecture import Architecture, LayerSummary
from repro.nn.graph import PartitionGraph
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.partition.partitioner import PartitionAnalyzer, PartitionEvaluation


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
        if check_graph and not graph.allows_cut_after(summary.index):
            continue
        candidates.append(summary.index)
    return candidates


def evaluate(
    analyzer: PartitionAnalyzer,
    architecture: Architecture,
    predictions: Optional[np.ndarray] = None,
    graph: Optional[PartitionGraph] = None,
) -> PartitionEvaluation:
    """Cost every deployment option of ``architecture`` under ``analyzer``.

    Same contract as :meth:`PartitionAnalyzer.evaluate`: ``predictions``
    optionally supplies the ``(num_layers, 2)`` ``(latency, power)`` array,
    ``graph`` optionally overrides the architecture's own cut-legality
    graph.
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
    cloud_cost = channel.cost(input_bytes)
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
        summaries,
        input_bytes,
        graph=graph if graph is not None else architecture.partition_graph(),
    )
    for index in partition_points:
        transfer_bytes = float(output_bytes[index])
        comm_cost = channel.cost(transfer_bytes)
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
        architecture_name=architecture.name,
        options=tuple(options),
        layer_latencies_s=tuple(float(v) for v in latencies),
        layer_energies_j=tuple(float(v) for v in energies),
        layer_output_bytes=tuple(int(v) for v in output_bytes),
        partition_point_indices=tuple(partition_points),
    )
