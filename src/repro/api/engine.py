"""Shared evaluation engine: predictor, layer-cost and partition caches.

Every search strategy and analysis sweep ultimately does the same two things:
(1) run a per-layer performance predictor over an architecture, and (2) cost
that architecture's deployment options under a wireless channel.  Step (1)
depends only on ``(predictor, architecture)`` and step (2) only on
``(predictor, architecture, channel)`` — so a multi-scenario sweep that
re-evaluates the same architecture under thirty throughput values used to
re-run the predictors thirty times.

:class:`EvaluationEngine` memoises both steps:

* ``predictor_for`` caches *trained* predictors per
  ``(device, training settings, seed)`` — training is seconds of work and is
  deterministic for integer seeds, so sharing is safe;
* the layer cache keeps per-layer predictions per
  ``(predictor, candidate)``, where a candidate is keyed by its
  layer-table rows (:class:`~repro.nn.architecture.LayerRows`), so
  genotype duplicates across strategies and scenarios hit the cache.  The
  cached values are the predictor's read-only ``(num_layers, 2)``
  ``(latency, power)`` arrays, filled and read only by ``evaluate_batch``;
* ``evaluate_partitions`` / ``sweep_channels`` cost deployment options on
  top of the cached predictions, caching full
  :class:`~repro.partition.partitioner.PartitionEvaluation` records per
  ``(channel, effective cut-legality graph)`` — runs over different search
  spaces never share partition records unless they request the identical
  computation;
* ``evaluate_batch`` is the pool-level entry point behind the search loop
  and the sweeps: it dedups a whole candidate pool against the caches,
  evaluates only the misses through the vectorised
  ``predict_pool`` / ``PartitionAnalyzer.evaluate_batch`` path, and
  backfills the caches; ``evaluate_partitions`` is its pool-of-one call.

One engine can (and should) back many runs: pass the same instance to
:func:`repro.api.session.run_search`, the deployment sweeps and the
benchmarks, and consult :meth:`EvaluationEngine.stats` to see the reuse.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware.device import DeviceProfile
from repro.hardware.predictors import BaseLayerPredictor, LayerPerformancePredictor
from repro.nn.architecture import Architecture, LayerRows
from repro.nn.graph import PartitionGraph
from repro.partition.partitioner import PartitionAnalyzer, PartitionEvaluation
from repro.wireless.channel import WirelessChannel

#: Cache key of a wireless channel: everything that affects costing,
#: including the power-model coefficients (custom models may reuse a
#: built-in technology label).
ChannelKey = Tuple[str, float, float, float, float]


def _channel_key(channel: WirelessChannel) -> ChannelKey:
    return (
        channel.technology,
        float(channel.power_model.alpha_w_per_mbps),
        float(channel.power_model.beta_w),
        float(channel.uplink_mbps),
        float(channel.round_trip_s),
    )


def _device_key(device: DeviceProfile) -> tuple:
    """Full identity of a device profile (names alone may be reused)."""
    return (
        device.name,
        device.kind,
        tuple(sorted(device.compute_rate_flops.items())),
        float(device.memory_bandwidth_bps),
        float(device.layer_overhead_s),
        float(device.idle_power_w),
        float(device.busy_power_w),
    )


@dataclass
class EngineStats:
    """Hit/miss counters of every engine cache."""

    predictor_hits: int = 0
    predictor_misses: int = 0
    layer_hits: int = 0
    layer_misses: int = 0
    partition_hits: int = 0
    partition_misses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "predictor_hits": self.predictor_hits,
            "predictor_misses": self.predictor_misses,
            "layer_hits": self.layer_hits,
            "layer_misses": self.layer_misses,
            "partition_hits": self.partition_hits,
            "partition_misses": self.partition_misses,
        }

    def since(self, earlier: "EngineStats") -> Dict[str, int]:
        """Counter increments between an earlier snapshot and this one."""
        before = earlier.to_dict()
        return {name: count - before[name] for name, count in self.to_dict().items()}

    def snapshot(self) -> "EngineStats":
        """Copy of the current counters."""
        return EngineStats(**self.to_dict())


class EvaluationEngine:
    """Caching, batching back-end for partition-aware evaluation.

    The engine is *stateful but deterministic*: predictor training is
    seeded, and each cached layer prediction or partition evaluation is the
    value the first pool holding its key computed.  Costing runs on whole
    pools, and a pool's results depend in the last bits on which candidates
    share it (prefix sums run along one pool-wide axis, and BLAS blocks the
    rows of ``predict_pool``), so a run backed by a warm engine agrees with
    a cold run within 1e-9, not bit for bit.  One-candidate pools are
    bitwise identical to the scalar oracle.

    Cached :class:`PartitionEvaluation` records are shared between callers
    and must be treated as read-only; cached layer predictions are
    read-only arrays.
    """

    def __init__(self):
        self._predictors: Dict[tuple, BaseLayerPredictor] = {}
        # predictor -> {architecture: per-layer predictions}; weak keys so
        # discarding a predictor releases its cached predictions too.
        self._layer_cache: "weakref.WeakKeyDictionary[BaseLayerPredictor, Dict[Architecture, np.ndarray]]" = (
            weakref.WeakKeyDictionary()
        )
        # predictor -> {channel key: {(architecture, partition graph): evaluation}};
        # nested so pool-level lookups hash the channel context once.
        self._partition_cache: "weakref.WeakKeyDictionary[BaseLayerPredictor, Dict[tuple, Dict[tuple, PartitionEvaluation]]]" = (
            weakref.WeakKeyDictionary()
        )
        self.stats = EngineStats()

    # ------------------------------------------------------------------ predictors
    def predictor_for(
        self,
        device: DeviceProfile,
        *,
        noise_std: float = 0.03,
        samples_per_type: int = 200,
        seed: Union[int, None] = 0,
    ) -> BaseLayerPredictor:
        """A (cached) per-layer predictor for ``device``.

        Training is deterministic for integer seeds, so repeated requests
        with the same settings share one predictor.  Non-integer seeds (live
        generators) bypass the cache.
        """
        cacheable = seed is None or isinstance(seed, (int, np.integer))
        key = (
            _device_key(device),
            float(noise_std),
            int(samples_per_type),
            None if seed is None else int(seed) if cacheable else None,
        )
        if cacheable and key in self._predictors:
            self.stats.predictor_hits += 1
            return self._predictors[key]
        self.stats.predictor_misses += 1
        predictor = LayerPerformancePredictor.train_for_device(
            device,
            noise_std=noise_std,
            samples_per_type=samples_per_type,
            seed=seed,
        )
        if cacheable:
            self._predictors[key] = predictor
        return predictor

    # ------------------------------------------------------------------ partition costing
    def evaluate_partitions(
        self,
        architecture: Architecture,
        analyzer: PartitionAnalyzer,
        graph: Optional["PartitionGraph"] = None,
    ) -> PartitionEvaluation:
        """Cost every deployment option, reusing cached layer predictions.

        A pool-of-one call of :meth:`evaluate_batch`: equivalent to
        ``analyzer.evaluate(architecture)``, but both the layer predictions
        and the resulting evaluation are memoised.  ``graph`` optionally
        overrides the architecture's own cut-legality graph (the hook behind
        :meth:`repro.nn.spaces.EncodedSearchSpace.partition_graph`).

        The cache is keyed per search space *by value*: the architecture
        (its layer-table rows, input bytes per element and skip edges) and the
        *effective* graph (override or the architecture's own —
        :class:`~repro.nn.graph.PartitionGraph` is a frozen dataclass
        hashing by value) are both in the key, so runs over different
        spaces can never serve each other stale evaluations, while
        space-less callers (the deployment sweeps) still hit entries warmed
        by a search over the identical computation.
        """
        return self.evaluate_batch([architecture], analyzer, graphs=[graph])[0][0]

    def evaluate_batch(
        self,
        architectures: Sequence[Architecture],
        analyzer: PartitionAnalyzer,
        *,
        channels: Optional[Sequence[WirelessChannel]] = None,
        graphs: Optional[Sequence[Optional["PartitionGraph"]]] = None,
    ) -> List[List[PartitionEvaluation]]:
        """Pool-level costing: dedup against the caches, batch the misses.

        The candidate pool (architectures, or their
        :class:`~repro.nn.architecture.LayerRows`) is first deduplicated on
        its layer-table rows, so genotype duplicates collapse, and checked
        against the layer and partition caches; only genuine misses run
        through the
        vectorised :meth:`~repro.hardware.predictors.BaseLayerPredictor.predict_pool`
        /:meth:`~repro.partition.partitioner.PartitionAnalyzer.evaluate_batch`
        path, and their results backfill the caches so later calls hit.
        Stats mirror the work actually saved: every
        pool position counts one partition hit or miss per channel
        (duplicates and cached ``(architecture, channel, graph)`` cells are
        hits), and each distinct architecture that needs costing counts one
        layer hit or miss — fully cached pools touch the layer cache not at
        all.

        ``results[i][j]`` is the evaluation of ``architectures[i]`` under
        ``channels[j]`` (``channels`` defaults to the analyzer's own
        channel).  Results are cache-shared records — treat them as
        read-only.
        """
        pool = LayerRows.of(architectures)
        channels = (
            [analyzer.channel] if channels is None else list(channels)
        )
        n = len(pool)
        num_channels = len(channels)
        if n == 0 or not channels:
            return [[] for _ in range(n)]
        # Dedup channels by cache key; repeated channels are pure re-use.
        channel_keys = [_channel_key(channel) for channel in channels]
        channel_owners, channel_firsts = _dedup(channel_keys)
        unique_channel_keys = [channel_keys[c] for c in channel_firsts]
        channels = [channels[c] for c in channel_firsts]
        if graphs is None:
            graphs = [None] * n
        if len(graphs) != n:
            raise ValueError(f"expected {n} graphs, got {len(graphs)}")
        effective_graphs = [
            graph if graph is not None else own
            for graph, own in zip(graphs, pool.graphs)
        ]

        # ---- dedup the pool (candidate keys compare table rows) ---------
        keys = list(zip(pool.keys(), effective_graphs))
        owners, unique_positions = _dedup(keys)
        unique_keys = [keys[p] for p in unique_positions]
        unique_graphs = [effective_graphs[p] for p in unique_positions]

        predictor = analyzer.predictor
        per_predictor = self._layer_cache.setdefault(predictor, {})

        def resolve_predictions(indices: Sequence[int]) -> List[np.ndarray]:
            """Layer predictions for the given unique-candidate indices.

            Cached entries are re-used (one layer hit per distinct
            architecture), the rest run through one
            :meth:`~repro.hardware.predictors.BaseLayerPredictor.predict_pool`
            call and backfill the layer cache.
            """
            candidates = [unique_keys[index][0] for index in indices]
            _, firsts = _dedup(candidates)
            missing = [first for first in firsts if candidates[first] not in per_predictor]
            self.stats.layer_hits += len(firsts) - len(missing)
            self.stats.layer_misses += len(missing)
            if missing:
                fresh = predictor.predict_pool(
                    pool.take([unique_positions[indices[first]] for first in missing])
                )
                per_predictor.update(zip([candidates[first] for first in missing], fresh))
            return [per_predictor[candidate] for candidate in candidates]

        # ---- partition costing: cached cells re-used, misses batched ----
        per_predictor_partitions = self._partition_cache.setdefault(predictor, {})
        per_channel_dicts = [
            per_predictor_partitions.setdefault(channel_key, {})
            for channel_key in unique_channel_keys
        ]
        results: List[List[Optional[PartitionEvaluation]]] = [
            [per_channel.get(key) for per_channel in per_channel_dicts]
            for key in unique_keys
        ]
        misses = sum(row.count(None) for row in results)
        self.stats.partition_hits += len(unique_keys) * len(channels) - misses
        self.stats.partition_misses += misses
        # Group miss rows by their missing-channel signature so only
        # genuinely uncached (architecture, channel) cells are computed — a
        # rectangular batch over all miss channels would redo cached cells
        # on partial overlap.  Signatures are usually homogeneous (one
        # group).
        by_signature: Dict[tuple, List[int]] = {}
        for i, row in enumerate(results):
            signature = tuple(ci for ci, cell in enumerate(row) if cell is None)
            if signature:
                by_signature.setdefault(signature, []).append(i)
        for signature, arch_indices in by_signature.items():
            fresh = analyzer.evaluate_batch(
                pool.take([unique_positions[i] for i in arch_indices]),
                channels=[channels[ci] for ci in signature],
                predictions=resolve_predictions(arch_indices),
                graphs=[unique_graphs[i] for i in arch_indices],
            )
            for row_index, i in enumerate(arch_indices):
                key = unique_keys[i]
                for column, ci in enumerate(signature):
                    evaluation = fresh[row_index][column]
                    per_channel_dicts[ci][key] = evaluation
                    results[i][ci] = evaluation
        # Duplicate pool positions and repeated channels are cache-level
        # re-use: every cell beyond the unique (arch, channel) grid is a
        # hit.
        self.stats.partition_hits += (
            n * num_channels - len(unique_positions) * len(channels)
        )

        return [
            [results[owner][channel_owners[ci]] for ci in range(num_channels)]
            for owner in owners
        ]

    def sweep_channels(
        self,
        architecture: Architecture,
        predictor: BaseLayerPredictor,
        channels: Sequence[WirelessChannel],
    ) -> List[PartitionEvaluation]:
        """Batched costing of one architecture under many channels.

        A thin wrapper over :meth:`evaluate_batch`: the per-layer
        predictions are fetched once and every channel is costed in one
        broadcast pass — the hot path of the Fig. 2 / Table I sweeps.
        """
        channels = list(channels)
        if not channels:
            return []
        analyzer = PartitionAnalyzer(predictor, channels[0])
        return self.evaluate_batch([architecture], analyzer, channels=channels)[0]

    # ------------------------------------------------------------------ maintenance
    def cache_sizes(self) -> Dict[str, int]:
        """Number of live entries per cache."""
        return {
            "predictors": len(self._predictors),
            "layer_predictions": sum(
                len(entries) for entries in self._layer_cache.values()
            ),
            "partition_evaluations": sum(
                len(per_channel)
                for per_predictor in self._partition_cache.values()
                for per_channel in per_predictor.values()
            ),
        }

    def stats_dict(self) -> Dict[str, int]:
        """Hit/miss counters plus live cache sizes."""
        merged = self.stats.to_dict()
        merged.update(self.cache_sizes())
        return merged


def _dedup(keys: Iterable[Hashable]) -> Tuple[List[int], List[int]]:
    """Each key's distinct-key index, and each distinct key's first position."""
    index: Dict[Hashable, int] = {}
    owners = [index.setdefault(key, len(index)) for key in keys]
    firsts = [0] * len(index)
    for position in reversed(range(len(owners))):
        firsts[owners[position]] = position
    return owners, firsts


#: Process-wide default engine used when callers do not supply one.
_DEFAULT_ENGINE: Optional[EvaluationEngine] = None


def default_engine() -> EvaluationEngine:
    """The lazily-created process-wide :class:`EvaluationEngine`."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = EvaluationEngine()
    return _DEFAULT_ENGINE
