"""Layer-partitioning engine (core of the paper's Algorithm 1).

Given per-layer latency/power predictions for an architecture on the edge
device and a wireless channel, the partitioner

1. identifies *candidate partition points* — layers whose output feature map
   is smaller than the network input (transmitting anything larger is always
   dominated by uploading the raw input, §II-A / Algorithm 1 line 9), and —
   for architectures carrying skip edges — whose boundary the dataflow graph
   marks as a legal single-tensor cut (see :mod:`repro.nn.graph`);
2. computes, for every candidate split as well as All-Edge and All-Cloud, the
   accumulated edge latency/energy plus the communication cost of shipping
   the split tensor (Algorithm 1 lines 10-12);
3. returns the option minimising each metric (lines 13-15).

The original engine assumed a linear layer chain; the graph-aware
enumeration generalises it so residual architectures (the ``resnet-v1``
search space) never propose a cut that would split a skip connection.
Linear architectures take exactly the same path and produce exactly the
same candidates as before.

The cloud's own compute cost is neglected, as in the paper: a split costs
the edge prefix plus the transfer of the cut tensor.

:meth:`PartitionAnalyzer.evaluate_batch` is the one implementation of the
costing, on arrays over a whole candidate pool, and
:meth:`PartitionAnalyzer.evaluate` is its pool-of-one call.  The
per-candidate loop it replaced is kept as the test oracle
``tests/oracles/partition.py``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.architecture import Architecture, LayerRows
from repro.nn.table import LAYER_TABLE
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.utils.units import mbps_to_bytes_per_second
from repro.wireless.channel import WirelessChannel


class PartitionEvaluation(NamedTuple):
    """Result of evaluating every deployment option for one architecture.

    Attributes
    ----------
    options:
        One :class:`DeploymentMetrics` per considered deployment option
        (All-Cloud, All-Edge and every candidate split), in that order.
    partition_point_indices:
        Indices of the layers after which a split option cuts, in the order
        of the split options.
    """

    options: Tuple[DeploymentMetrics, ...]
    partition_point_indices: Tuple[int, ...]

    @property
    def all_cloud(self) -> DeploymentMetrics:
        """Metrics of the All-Cloud deployment."""
        return self.options[0]

    @property
    def all_edge(self) -> DeploymentMetrics:
        """Metrics of the All-Edge deployment."""
        return self.options[1]

    @property
    def best_latency(self) -> DeploymentMetrics:
        """Deployment option minimising end-to-end latency."""
        return min(self.options, key=lambda m: m.latency_s)

    @property
    def best_energy(self) -> DeploymentMetrics:
        """Deployment option minimising edge energy."""
        return min(self.options, key=lambda m: m.energy_j)

    def best_for(self, metric: str) -> DeploymentMetrics:
        """Best deployment for ``"latency"`` or ``"energy"``."""
        if metric == "latency":
            return self.best_latency
        if metric == "energy":
            return self.best_energy
        raise ValueError(f"metric must be 'latency' or 'energy', got {metric!r}")


class PartitionAnalyzer:
    """Evaluates all deployment options of an architecture (Algorithm 1).

    Parameters
    ----------
    predictor:
        Edge-device per-layer latency/power predictor.
    channel:
        Wireless channel carrying the expected design-time conditions
        (technology, uplink throughput, round-trip time).
    """

    def __init__(self, predictor: BaseLayerPredictor, channel: WirelessChannel):
        self.predictor = predictor
        self.channel = channel

    # ------------------------------------------------------------------ evaluation
    def evaluate(self, architecture: Architecture) -> PartitionEvaluation:
        """Cost every deployment option of ``architecture``.

        A pool-of-one call of :meth:`evaluate_batch`, so every caller runs
        the costing the searches run.  ``architecture`` is the candidate
        model, decoded with the *performance* input shape.
        """
        return self.evaluate_batch([architecture])[0][0]

    def evaluate_batch(
        self,
        architectures: Sequence[Architecture],
        channels: Optional[Sequence[WirelessChannel]] = None,
        predictions: Optional[Sequence[np.ndarray]] = None,
    ) -> List[List[PartitionEvaluation]]:
        """Array-based costing of a candidate pool under many channels.

        Costs every ``(architecture, channel)`` pair end to end on arrays:
        per-candidate latency/energy/output-byte vectors concatenate into one
        flat pool-wide axis, split costing (prefix sums, the shrinkage rule,
        the legal-cut mask of each candidate's skip edges and the channel
        cost model) is broadcast across every cut point of every candidate
        at once.

        Results match the scalar oracle (``tests/oracles/partition.py``)
        to floating-point roundoff, <= 1e-9, and bit for bit for a
        one-candidate pool (asserted by the hypothesis parity suite and
        ``benchmarks/bench_eval_batch.py``).  The prefix sums run along the
        pool-wide axis, so a candidate's last bits can depend on which other
        candidates share its pool.

        Parameters
        ----------
        architectures:
            The candidate pool: architectures, or their layer-table rows
            (:class:`~repro.nn.architecture.LayerRows`), whose columns the
            per-layer arrays are gathered from and whose cut-legality
            :attr:`~repro.nn.architecture.LayerRows.graphs` mask the cuts.
        channels:
            Wireless channels to cost under; defaults to the analyzer's own
            channel.  The per-candidate arrays are built once and shared.
        predictions:
            Optional pre-computed per-layer predictions: one
            ``(num_layers, 2)`` ``(latency, power)`` array per architecture,
            as :meth:`~repro.hardware.predictors.BaseLayerPredictor.predict_pool`
            returns them.

        Returns
        -------
        ``results[i][j]`` is the :class:`PartitionEvaluation` of
        ``architectures[i]`` under ``channels[j]``.
        """
        pool = LayerRows.of(architectures)
        channels = [self.channel] if channels is None else list(channels)
        n = len(pool)
        if n == 0 or not channels:
            return [[] for _ in range(n)]
        if predictions is None:
            predictions = self.predictor.predict_pool(pool)
        if len(predictions) != n:
            raise ValueError(f"expected {n} prediction arrays, got {len(predictions)}")

        # ---- channel-independent pool arrays (flat layer axis) ----------
        # All per-layer quantities are concatenated along one flat axis
        # (candidate i owns positions offsets[i]:offsets[i+1]) so every
        # numpy operation below runs once for the whole pool; per-candidate
        # 2-D padding would cost one small-array operation per candidate.
        lengths = pool.lengths
        offsets = pool.offsets
        for name, layer_predictions, count in zip(pool.names, predictions, lengths):
            if len(layer_predictions) != count:
                raise ValueError(
                    f"expected {count} layer predictions for "
                    f"{name}, got {len(layer_predictions)}"
                )
        pairs = np.concatenate(predictions)
        flat_latency = pairs[:, 0]
        # Per-layer energy is latency * power, one elementwise product for
        # the whole pool.
        flat_energy = flat_latency * pairs[:, 1]

        # Per-candidate prefix sums: one flat cumsum, then subtract each
        # candidate's starting total.
        starts = np.array(offsets[:-1])
        last_positions = np.array(offsets[1:]) - 1
        cum_lat_all = np.cumsum(flat_latency)
        cum_en_all = np.cumsum(flat_energy)
        base_lat = np.repeat(np.concatenate(([0.0], cum_lat_all))[starts], lengths)
        base_en = np.repeat(np.concatenate(([0.0], cum_en_all))[starts], lengths)
        cumulative_latency = cum_lat_all - base_lat
        cumulative_energy = cum_en_all - base_en

        flat_rows = pool.flat
        bytes_array = LAYER_TABLE.output_bytes[flat_rows].astype(float)
        records = LAYER_TABLE.records
        input_bytes = np.array(
            [
                records[chain[0]].input_elements * per_element
                for chain, per_element in zip(pool.chains, pool.input_bytes_per_element)
            ],
            dtype=float,
        )

        # Legal-cut mask: the structural flag, the final-boundary exclusion,
        # the paper's shrinkage rule and the graph's single-tensor-cut mask,
        # all as pool-wide boolean vector operations.
        mask = LAYER_TABLE.candidate[flat_rows]
        mask[last_positions] = False  # cutting after the last layer is All-Edge
        mask &= bytes_array < np.repeat(input_bytes, lengths)
        for i, graph in enumerate(pool.graphs):
            if not graph.is_linear:
                mask[offsets[i] : offsets[i + 1] - 1] &= graph.legal_cut_mask()
        cuts = np.flatnonzero(mask)

        # Per-cut values, pool-wide: candidate i's cuts are
        # cuts[cut_offsets[i]:cut_offsets[i + 1]], each a split after the
        # candidate's layer ``relative`` (one DeploymentOption per index and
        # layer name), so each per-cut value stream is one gather.
        cut_offsets = np.searchsorted(cuts, offsets).tolist()
        relative = (cuts - np.repeat(starts, lengths)[cuts]).tolist()
        option_cache: Dict[Tuple[int, str], DeploymentOption] = {}
        flat_split_options = [
            option_cache.get(key)
            or option_cache.setdefault(key, DeploymentOption.split_after(*key))
            for key in zip(relative, [records[row].name for row in flat_rows[cuts].tolist()])
        ]
        cut_tuples = [
            tuple(relative[a:b]) for a, b in zip(cut_offsets[:-1], cut_offsets[1:])
        ]

        all_edge_latency = cumulative_latency[last_positions].tolist()
        all_edge_energy = cumulative_energy[last_positions].tolist()
        input_bytes_floats = input_bytes.tolist()
        all_cloud_option = DeploymentOption.all_cloud()
        all_edge_option = DeploymentOption.all_edge()
        transferred_cuts = bytes_array[cuts].tolist()
        edge_latency_cuts = cumulative_latency[cuts].tolist()
        edge_energy_cuts = cumulative_energy[cuts].tolist()
        metrics = DeploymentMetrics._make

        # ---- per-channel broadcast costing ------------------------------
        results: List[List[PartitionEvaluation]] = [
            [None] * len(channels) for _ in range(n)  # type: ignore[list-item]
        ]
        for ci, channel in enumerate(channels):
            rate = mbps_to_bytes_per_second(channel.uplink_mbps)
            round_trip = channel.round_trip_s
            power = channel.transmission_power_w()
            transmission = bytes_array / rate
            comm_latency = transmission + round_trip
            comm_energy = power * transmission
            cloud_transmission = input_bytes / rate
            cloud_latency = (cloud_transmission + round_trip).tolist()
            cloud_energy = (power * cloud_transmission).tolist()
            # Every split option of every candidate, one map over the
            # pool-wide per-cut value streams.
            flat_split_metrics = list(
                map(
                    metrics,
                    zip(
                        flat_split_options,
                        (cumulative_latency + comm_latency)[cuts].tolist(),
                        (cumulative_energy + comm_energy)[cuts].tolist(),
                        edge_latency_cuts,
                        edge_energy_cuts,
                        comm_latency[cuts].tolist(),
                        comm_energy[cuts].tolist(),
                        transferred_cuts,
                    ),
                )
            )

            for i in range(n):
                results[i][ci] = PartitionEvaluation(
                    (
                        DeploymentMetrics(
                            all_cloud_option,
                            cloud_latency[i],
                            cloud_energy[i],
                            0.0,
                            0.0,
                            cloud_latency[i],
                            cloud_energy[i],
                            input_bytes_floats[i],
                        ),
                        DeploymentMetrics(
                            all_edge_option,
                            all_edge_latency[i],
                            all_edge_energy[i],
                            all_edge_latency[i],
                            all_edge_energy[i],
                            0.0,
                            0.0,
                            0.0,
                        ),
                        *flat_split_metrics[cut_offsets[i] : cut_offsets[i + 1]],
                    ),
                    cut_tuples[i],
                )
        return results

    def with_channel(self, channel: WirelessChannel) -> "PartitionAnalyzer":
        """Copy of this analyzer bound to a different wireless channel."""
        return PartitionAnalyzer(self.predictor, channel)
