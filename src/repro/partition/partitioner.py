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

The cloud's own compute cost is neglected by default, as in the paper; an
optional cloud predictor can be supplied for sensitivity studies.

:meth:`PartitionAnalyzer.evaluate_batch` is the one implementation of the
costing, on arrays over a whole candidate pool, and
:meth:`PartitionAnalyzer.evaluate` is its pool-of-one call.  The
per-candidate loop it replaced is kept as the test oracle
``tests/oracles/partition.py``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.predictors import BaseLayerPredictor, LayerPrediction
from repro.nn.architecture import Architecture
from repro.nn.graph import PartitionGraph
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.utils.units import mbps_to_bytes_per_second
from repro.wireless.channel import WirelessChannel


class PartitionEvaluation(NamedTuple):
    """Result of evaluating every deployment option for one architecture.

    Attributes
    ----------
    architecture_name:
        Name of the evaluated architecture.
    options:
        One :class:`DeploymentMetrics` per considered deployment option
        (All-Cloud, All-Edge and every candidate split), in that order.
    layer_latencies_s / layer_energies_j / layer_output_bytes:
        Per-layer predictions the costing was derived from, exposed for the
        per-layer analyses (Fig. 1) and the runtime threshold study.
    partition_point_indices:
        Indices of the layers after which a split option cuts, in the order
        of the split options.
    """

    architecture_name: str
    options: Tuple[DeploymentMetrics, ...]
    layer_latencies_s: Tuple[float, ...]
    layer_energies_j: Tuple[float, ...]
    layer_output_bytes: Tuple[int, ...]
    partition_point_indices: Tuple[int, ...]

    def metrics_for(self, option: DeploymentOption) -> DeploymentMetrics:
        """Metrics of a specific deployment option."""
        for metrics in self.options:
            if metrics.option == option:
                return metrics
        raise KeyError(f"option {option.label} was not evaluated")

    @property
    def all_edge(self) -> DeploymentMetrics:
        """Metrics of the All-Edge deployment."""
        return self.metrics_for(DeploymentOption.all_edge())

    @property
    def all_cloud(self) -> DeploymentMetrics:
        """Metrics of the All-Cloud deployment."""
        return self.metrics_for(DeploymentOption.all_cloud())

    @property
    def split_options(self) -> Tuple[DeploymentMetrics, ...]:
        """Metrics of every genuine split option."""
        return tuple(m for m in self.options if m.option.is_split)

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

    def to_dict(self) -> Dict:
        return {
            "architecture_name": self.architecture_name,
            "options": [m.to_dict() for m in self.options],
            "partition_point_indices": list(self.partition_point_indices),
            "best_latency": self.best_latency.to_dict(),
            "best_energy": self.best_energy.to_dict(),
        }


class PartitionAnalyzer:
    """Evaluates all deployment options of an architecture (Algorithm 1).

    Parameters
    ----------
    predictor:
        Edge-device per-layer latency/power predictor.
    channel:
        Wireless channel carrying the expected design-time conditions
        (technology, uplink throughput, round-trip time).
    cloud_predictor:
        Optional cloud-side predictor.  When provided, the cloud compute
        latency of the offloaded suffix is added to split / All-Cloud
        latencies (cloud *energy* is never charged to the edge device).  The
        paper neglects cloud compute entirely, which is the default.
    require_shrinkage:
        Whether split candidates must shrink the data below the input size
        (the paper's rule).
    """

    def __init__(
        self,
        predictor: BaseLayerPredictor,
        channel: WirelessChannel,
        cloud_predictor: Optional[BaseLayerPredictor] = None,
        require_shrinkage: bool = True,
    ):
        self.predictor = predictor
        self.channel = channel
        self.cloud_predictor = cloud_predictor
        self.require_shrinkage = bool(require_shrinkage)

    # ------------------------------------------------------------------ evaluation
    def evaluate(
        self,
        architecture: Architecture,
        predictions: Optional[Sequence[LayerPrediction]] = None,
        graph: Optional[PartitionGraph] = None,
    ) -> PartitionEvaluation:
        """Cost every deployment option of ``architecture``.

        A pool-of-one call of :meth:`evaluate_batch`, so every caller runs
        the costing the searches run.

        Parameters
        ----------
        architecture:
            The candidate model, decoded with the *performance* input shape.
        predictions:
            Optional pre-computed per-layer predictions (used to avoid
            re-running the predictors when evaluating the same architecture
            under several channels).
        graph:
            Optional cut-legality graph overriding the architecture's own
            (used by search spaces that constrain cuts beyond what the
            decoded skip edges express, via
            :meth:`repro.nn.spaces.SearchSpace.partition_graph`).
        """
        return self.evaluate_batch(
            [architecture],
            predictions_list=None if predictions is None else [predictions],
            graphs=[graph],
        )[0][0]

    def evaluate_batch(
        self,
        architectures: Sequence[Architecture],
        channels: Optional[Sequence[WirelessChannel]] = None,
        predictions_list: Optional[Sequence[Sequence[LayerPrediction]]] = None,
        graphs: Optional[Sequence[Optional[PartitionGraph]]] = None,
        predictions_array: Optional[np.ndarray] = None,
    ) -> List[List[PartitionEvaluation]]:
        """Array-based costing of a candidate pool under many channels.

        Costs every ``(architecture, channel)`` pair end to end on arrays:
        per-candidate latency/energy/output-byte vectors concatenate into one
        flat pool-wide axis, split costing (prefix sums, the shrinkage rule,
        the :class:`~repro.nn.graph.PartitionGraph` legal-cut mask and the
        channel cost model) is broadcast across every cut point of every
        candidate at once, and cloud-suffix latencies come from one reversed
        cumulative sum per candidate.

        Results match the scalar oracle (``tests/oracles/partition.py``)
        to floating-point roundoff, <= 1e-9, and bit for bit for a
        one-candidate pool (asserted by the hypothesis parity suite and
        ``benchmarks/bench_eval_batch.py``).  The prefix sums run along the
        pool-wide axis, so a candidate's last bits can depend on which other
        candidates share its pool.

        Parameters
        ----------
        architectures:
            The candidate pool.
        channels:
            Wireless channels to cost under; defaults to the analyzer's own
            channel.  The per-candidate arrays are built once and shared.
        predictions_list:
            Optional pre-computed per-layer predictions, one sequence per
            architecture (e.g. from
            :meth:`~repro.hardware.predictors.BaseLayerPredictor.predict_batch`).
        graphs:
            Optional per-architecture cut-legality overrides (``None``
            entries fall back to each architecture's own graph).
        predictions_array:
            Optional raw ``(total_layers, 2)`` latency/power array matching
            ``predictions_list`` (the second return of
            :meth:`~repro.hardware.predictors.LayerPerformancePredictor.predict_pool`);
            skips the prediction-tuple-to-array conversion.

        Returns
        -------
        ``results[i][j]`` is the :class:`PartitionEvaluation` of
        ``architectures[i]`` under ``channels[j]``.
        """
        architectures = list(architectures)
        channels = [self.channel] if channels is None else list(channels)
        n = len(architectures)
        if n == 0 or not channels:
            return [[] for _ in range(n)]
        if predictions_list is None:
            predict_pool = getattr(self.predictor, "predict_pool", None)
            if predict_pool is not None:
                predictions_list, predictions_array = predict_pool(architectures)
            else:
                predictions_list = self.predictor.predict_batch(architectures)
        if graphs is None:
            graphs = [None] * n
        if len(predictions_list) != n or len(graphs) != n:
            raise ValueError(
                f"expected {n} prediction sequences and graphs, got "
                f"{len(predictions_list)} and {len(graphs)}"
            )

        # ---- channel-independent pool arrays (flat layer axis) ----------
        # All per-layer quantities are concatenated along one flat axis
        # (candidate i owns positions offsets[i]:offsets[i+1]) so every
        # numpy operation below runs once for the whole pool; per-candidate
        # 2-D padding would cost one small-array operation per candidate.
        summary_lists = [a.summarize() for a in architectures]
        lengths = [len(s) for s in summary_lists]
        offsets = [0]
        for count in lengths:
            offsets.append(offsets[-1] + count)
        for architecture, predictions, count in zip(
            architectures, predictions_list, lengths
        ):
            if len(predictions) != count:
                raise ValueError(
                    f"expected {count} layer predictions for "
                    f"{architecture.name}, got {len(predictions)}"
                )
        # The per-layer (latency, power) stream as a (total_layers, 2)
        # array: the predictor's raw pool array when supplied, otherwise one
        # conversion of the prediction tuples (LayerPrediction is a named
        # tuple; duck-typed prediction objects fall back to attribute access).
        if predictions_array is not None and predictions_array.shape == (
            offsets[-1],
            2,
        ):
            pairs = predictions_array
        else:
            flat_predictions = [
                p for predictions in predictions_list for p in predictions
            ]
            try:
                pairs = np.asarray(flat_predictions, dtype=float)
            except (TypeError, ValueError):
                pairs = None
            if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
                pairs = np.array(
                    [(p.latency_s, p.power_w) for p in flat_predictions],
                    dtype=float,
                )
        flat_latency = pairs[:, 0]
        # Per-layer energy is latency * power (LayerPrediction.energy_j),
        # one elementwise product for the whole pool.
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

        flat_bytes: List[int] = []
        flat_flags: List[bool] = []
        for summaries in summary_lists:
            for summary in summaries:
                flat_bytes.append(summary.output_bytes)
                flat_flags.append(summary.is_partition_candidate)
        bytes_array = np.array(flat_bytes, dtype=float)
        input_bytes = np.array(
            [a.input_bytes for a in architectures], dtype=float
        )

        # Legal-cut mask: the structural flag, the final-boundary exclusion,
        # the paper's shrinkage rule and the graph's single-tensor-cut mask,
        # all as pool-wide boolean vector operations.
        mask = np.array(flat_flags, dtype=bool)
        mask[last_positions] = False  # cutting after the last layer is All-Edge
        if self.require_shrinkage:
            mask &= bytes_array < np.repeat(input_bytes, lengths)
        for i, architecture in enumerate(architectures):
            graph = graphs[i]
            if graph is None:
                graph = architecture.partition_graph()
            if not graph.is_linear:
                mask[offsets[i] : offsets[i + 1] - 1] &= graph.legal_cut_mask()
        flat_cuts = np.flatnonzero(mask).tolist()

        # Cloud-suffix latencies for the whole pool: one batched cloud
        # prediction pass, then one reversed cumsum per candidate.
        if self.cloud_predictor is not None:
            cloud_suffixes: List[Optional[List[float]]] = []
            for cloud_preds in self.cloud_predictor.predict_batch(architectures):
                cloud_latencies = np.array([p.latency_s for p in cloud_preds])
                suffix = np.zeros(cloud_latencies.shape[0] + 1)
                suffix[:-1] = cloud_latencies[::-1].cumsum()[::-1]
                cloud_suffixes.append(suffix.tolist())
        else:
            cloud_suffixes = [None] * n

        # Per-candidate cut segments: flat positions (for array indexing),
        # relative indices (the split points) and shared DeploymentOptions,
        # concatenated pool-wide so each flat per-cut value list is later
        # extracted with a single itemgetter call per channel.
        split_option_cache: Dict[Tuple[int, str], DeploymentOption] = {}
        flat_split_options: List[DeploymentOption] = []
        cut_offsets: List[int] = [0]
        cut_tuples: List[Tuple[int, ...]] = []
        cursor = 0
        num_cuts = len(flat_cuts)
        for i in range(n):
            start = offsets[i]
            end = offsets[i + 1]
            summaries = summary_lists[i]
            rel_cuts: List[int] = []
            while cursor < num_cuts and flat_cuts[cursor] < end:
                index = flat_cuts[cursor] - start
                key = (index, summaries[index].name)
                option = split_option_cache.get(key)
                if option is None:
                    option = DeploymentOption.split_after(index, summaries[index].name)
                    split_option_cache[key] = option
                flat_split_options.append(option)
                rel_cuts.append(index)
                cursor += 1
            cut_offsets.append(cursor)
            cut_tuples.append(tuple(rel_cuts))
        if num_cuts == 1:
            only = flat_cuts[0]

            def flat_getter(values, _p=only):
                return (values[_p],)

        elif num_cuts:
            flat_getter = itemgetter(*flat_cuts)
        else:
            flat_getter = None

        lat_list = flat_latency.tolist()
        en_list = flat_energy.tolist()
        layer_latency_tuples = [
            tuple(lat_list[offsets[i] : offsets[i + 1]]) for i in range(n)
        ]
        layer_energy_tuples = [
            tuple(en_list[offsets[i] : offsets[i + 1]]) for i in range(n)
        ]
        layer_byte_tuples = [
            tuple(flat_bytes[offsets[i] : offsets[i + 1]]) for i in range(n)
        ]
        cum_lat_list = cumulative_latency.tolist()
        cum_en_list = cumulative_energy.tolist()
        all_edge_latency = cumulative_latency[last_positions].tolist()
        all_edge_energy = cumulative_energy[last_positions].tolist()
        bytes_floats = bytes_array.tolist()
        input_bytes_floats = input_bytes.tolist()
        names = [a.name for a in architectures]
        all_cloud_option = DeploymentOption.all_cloud()
        all_edge_option = DeploymentOption.all_edge()
        # Channel-independent per-cut value streams, extracted pool-wide in
        # one itemgetter call each.
        if flat_getter is not None:
            transferred_cuts = flat_getter(bytes_floats)
            edge_latency_cuts = flat_getter(cum_lat_list)
            edge_energy_cuts = flat_getter(cum_en_list)
        metrics = DeploymentMetrics._make
        has_cloud_suffix = self.cloud_predictor is not None

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
            split_latency = (cumulative_latency + comm_latency).tolist()
            split_energy = (cumulative_energy + comm_energy).tolist()
            comm_latency_list = comm_latency.tolist()
            comm_energy_list = comm_energy.tolist()
            cloud_transmission = input_bytes / rate
            cloud_latency = (cloud_transmission + round_trip).tolist()
            cloud_energy = (power * cloud_transmission).tolist()

            # Every split option of every candidate, one map over the
            # pool-wide per-cut value streams; candidate i's splits are
            # flat_split_metrics[cut_offsets[i]:cut_offsets[i + 1]].
            if flat_getter is not None:
                split_latency_cuts = flat_getter(split_latency)
                if has_cloud_suffix:
                    split_latency_cuts = tuple(
                        value + cloud_suffixes[i][index + 1]
                        for i in range(n)
                        for value, index in zip(
                            split_latency_cuts[
                                cut_offsets[i] : cut_offsets[i + 1]
                            ],
                            cut_tuples[i],
                        )
                    )
                flat_split_metrics = list(
                    map(
                        metrics,
                        zip(
                            flat_split_options,
                            split_latency_cuts,
                            flat_getter(split_energy),
                            edge_latency_cuts,
                            edge_energy_cuts,
                            flat_getter(comm_latency_list),
                            flat_getter(comm_energy_list),
                            transferred_cuts,
                        ),
                    )
                )
            else:
                flat_split_metrics = []

            for i in range(n):
                suffix = cloud_suffixes[i]
                results[i][ci] = PartitionEvaluation(
                    names[i],
                    (
                        DeploymentMetrics(
                            all_cloud_option,
                            cloud_latency[i]
                            + (suffix[0] if suffix is not None else 0.0),
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
                    layer_latency_tuples[i],
                    layer_energy_tuples[i],
                    layer_byte_tuples[i],
                    cut_tuples[i],
                )
        return results

    def with_channel(self, channel: WirelessChannel) -> "PartitionAnalyzer":
        """Copy of this analyzer bound to a different wireless channel."""
        return PartitionAnalyzer(
            predictor=self.predictor,
            channel=channel,
            cloud_predictor=self.cloud_predictor,
            require_shrinkage=self.require_shrinkage,
        )
