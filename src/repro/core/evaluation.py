"""Partition-aware objective evaluation (paper Algorithm 1).

Given a candidate genotype, the evaluator

1. decodes it twice — once with the accuracy input shape (CIFAR-like) for the
   error objective, once with the performance input shape (224x224x3) for the
   latency/energy objectives, exactly as the paper's experimental setup does;
2. estimates the test error with the configured accuracy model;
3. predicts per-layer latency and power on the edge device, identifies the
   candidate partition points, accumulates on-device cost up to each point,
   adds the wireless transfer cost of that point's output, and takes the
   minimum over all deployment options for each metric (Algorithm 1);
4. returns the objective vector ``(error, latency, energy)`` plus a full
   :class:`~repro.core.results.CandidateEvaluation` record as metadata.

Setting ``partition_within=False`` turns off step 3's minimisation and uses
the All-Edge values as objectives instead — that is exactly the "Traditional"
baseline's platform-aware NAS, and the switch behind the paper's
partition-within-vs-after ablation (Fig. 7).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accuracy.surrogate import AccuracyModel
from repro.core.results import CandidateEvaluation
from repro.nn.architecture import Architecture
from repro.nn.graph import PartitionGraph
from repro.nn.spaces import SearchSpace
from repro.partition.partitioner import PartitionAnalyzer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a core <-> api cycle
    from repro.api.engine import EvaluationEngine


def space_partition_graph(
    search_space: SearchSpace, architecture: Architecture
) -> PartitionGraph:
    """The space's cut-legality graph for a decoded architecture.

    The space's :meth:`~repro.nn.spaces.SearchSpace.partition_graph` hook is
    authoritative — spaces may constrain cuts beyond what the decoded skip
    edges express.  Legacy duck-typed spaces without the hook fall back to
    the architecture's own graph.
    """
    hook = getattr(search_space, "partition_graph", None)
    if hook is None:
        return architecture.partition_graph()
    return hook(architecture)


class PartitionAwareEvaluator:
    """Evaluates genotypes into (error, latency, energy) objective vectors.

    Parameters
    ----------
    search_space:
        Any :class:`~repro.nn.spaces.SearchSpace` used for decoding
        genotypes (the paper's ``lens-vgg`` space, the residual
        ``resnet-v1`` space, the 1-D ``seq-conv1d`` space, or a custom one).
    accuracy_model:
        Any object implementing ``error_percent(architecture) -> float``.
    analyzer:
        Partition analyzer bound to the edge-device predictor and the
        expected wireless channel.
    partition_within:
        ``True`` (LENS): objectives use each candidate's best deployment
        option.  ``False`` (Traditional): objectives use the All-Edge values.
    engine:
        Optional :class:`~repro.api.engine.EvaluationEngine`; when supplied,
        layer predictions and partition evaluations are fetched through its
        caches so repeated genotypes (across strategies, scenarios or runs)
        are costed once.
    """

    def __init__(
        self,
        search_space: SearchSpace,
        accuracy_model: AccuracyModel,
        analyzer: PartitionAnalyzer,
        partition_within: bool = True,
        engine: Optional["EvaluationEngine"] = None,
    ):
        self.search_space = search_space
        self.accuracy_model = accuracy_model
        self.analyzer = analyzer
        self.partition_within = bool(partition_within)
        self.engine = engine

    # ------------------------------------------------------------------ evaluation
    def evaluate_genotype(
        self, genotype: Sequence[int]
    ) -> Tuple[np.ndarray, Dict]:
        """Evaluate one genotype: a pool-of-one call of :meth:`evaluate_pool`.

        Returns the objective vector ``[error %, latency s, energy J]``
        (all minimised) and a metadata dictionary containing the full
        :class:`CandidateEvaluation` under the key ``"evaluation"``.
        """
        return self.evaluate_pool([genotype])[0]

    def evaluate_pool(
        self, genotypes: Sequence[Sequence[int]]
    ) -> List[Tuple[np.ndarray, Dict]]:
        """Evaluate a whole candidate pool through the batched hot path.

        One record per genotype, in order; the per-layer predictions and
        deployment costing run as one array-level batch:
        :meth:`~repro.api.engine.EvaluationEngine.evaluate_batch` dedups the
        pool against the engine caches and backfills them, or — without an
        engine — :meth:`~repro.partition.partitioner.PartitionAnalyzer.evaluate_batch`
        costs the pool directly.
        """
        genotypes = list(genotypes)
        if not genotypes:
            return []
        accuracy_archs = [self.search_space.decode_for_accuracy(g) for g in genotypes]
        performance_archs = [
            self.search_space.decode_for_performance(g) for g in genotypes
        ]
        graphs = [
            space_partition_graph(self.search_space, architecture)
            for architecture in performance_archs
        ]
        if self.engine is not None:
            rows = self.engine.evaluate_batch(
                performance_archs, self.analyzer, graphs=graphs
            )
        else:
            rows = self.analyzer.evaluate_batch(performance_archs, graphs=graphs)
        return [
            self._package(genotype, accuracy_arch, performance_arch, row[0])
            for genotype, accuracy_arch, performance_arch, row in zip(
                genotypes, accuracy_archs, performance_archs, rows
            )
        ]

    def _package(
        self,
        genotype: Sequence[int],
        accuracy_arch: Architecture,
        performance_arch: Architecture,
        partition_eval,
    ) -> Tuple[np.ndarray, Dict]:
        """Objective vector and metadata record of one costed candidate."""
        error = float(self.accuracy_model.error_percent(accuracy_arch))
        all_edge = partition_eval.all_edge
        best_latency = partition_eval.best_latency
        best_energy = partition_eval.best_energy

        if self.partition_within:
            latency = best_latency.latency_s
            energy = best_energy.energy_j
        else:
            latency = all_edge.latency_s
            energy = all_edge.energy_j

        evaluation = CandidateEvaluation(
            genotype=tuple(int(v) for v in np.asarray(genotype, dtype=int)),
            architecture_name=performance_arch.name,
            error_percent=error,
            latency_s=float(latency),
            energy_j=float(energy),
            best_latency_option=best_latency.option,
            best_energy_option=best_energy.option,
            all_edge_latency_s=float(all_edge.latency_s),
            all_edge_energy_j=float(all_edge.energy_j),
            extras={
                "best_latency_s": float(best_latency.latency_s),
                "best_energy_j": float(best_energy.energy_j),
                "all_cloud_latency_s": float(partition_eval.all_cloud.latency_s),
                "all_cloud_energy_j": float(partition_eval.all_cloud.energy_j),
                "num_partition_points": len(partition_eval.partition_point_indices),
                "total_params": int(accuracy_arch.total_params),
                "total_macs": int(performance_arch.total_macs),
            },
        )
        objectives = np.array([error, float(latency), float(energy)])
        return objectives, {"evaluation": evaluation}

    # ------------------------------------------------------------------ adapters for the MOBO loop
    def objective_fn(self, genotype: Sequence[int]) -> Tuple[np.ndarray, Dict]:
        """Adapter matching the optimizer's ``objective_fn`` signature."""
        return self.evaluate_genotype(genotype)

    def feature_fn(self, genotype: Sequence[int]) -> np.ndarray:
        """Adapter returning the genotype's unit-cube features."""
        return self.search_space.to_features(genotype)

    def sample_fn(self, rng) -> np.ndarray:
        """Adapter sampling a random valid genotype."""
        return self.search_space.sample(rng)

    def neighbor_fn(self, genotype: Sequence[int], count: int, rng) -> np.ndarray:
        """Adapter proposing valid neighbours of a genotype."""
        return self.search_space.neighbours(genotype, count, rng)
