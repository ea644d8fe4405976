"""Partition-aware objective evaluation (paper Algorithm 1).

Given a pool of candidate genotypes, the evaluator

1. validates the pool once and builds each genotype's layer stack once,
   then reads it under two input shapes — the accuracy input shape
   (CIFAR-like) for the error objective and the performance input shape
   (224x224x3) for the latency/energy objectives, exactly as the paper's
   experimental setup does;
2. estimates the test errors with the configured accuracy model, for the
   whole pool at once;
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
from repro.nn.spaces import EncodedSearchSpace
from repro.partition.partitioner import PartitionAnalyzer

if TYPE_CHECKING:  # imported lazily at runtime to avoid a core <-> api cycle
    from repro.api.engine import EvaluationEngine


class PartitionAwareEvaluator:
    """Evaluates genotypes into (error, latency, energy) objective vectors.

    Parameters
    ----------
    search_space:
        Any :class:`~repro.nn.spaces.EncodedSearchSpace` used for decoding
        genotypes (the paper's ``lens-vgg`` space, the residual
        ``resnet-v1`` space, the 1-D ``seq-conv1d`` space, or a custom one).
    accuracy_model:
        Any :class:`~repro.accuracy.surrogate.AccuracyModel`.
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
        search_space: EncodedSearchSpace,
        accuracy_model: AccuracyModel,
        analyzer: PartitionAnalyzer,
        partition_within: bool = True,
        engine: Optional["EvaluationEngine"] = None,
    ):
        if not isinstance(accuracy_model, AccuracyModel):
            raise TypeError(
                "accuracy_model must be an AccuracyModel (implement "
                f"error_percent on a subclass), got {type(accuracy_model).__name__}"
            )
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

        One record per genotype, in order.  The pool is decoded as one
        validated array (:meth:`~repro.nn.spaces.EncodedSearchSpace.decode_pool`),
        its errors are estimated together
        (:meth:`~repro.accuracy.surrogate.AccuracyModel.error_percent_pool`),
        and the per-layer predictions and deployment costing run as one
        array-level batch:
        :meth:`~repro.api.engine.EvaluationEngine.evaluate_batch` dedups the
        pool against the engine caches and backfills them, or — without an
        engine — :meth:`~repro.partition.partitioner.PartitionAnalyzer.evaluate_batch`
        costs the pool directly.
        """
        genotypes = list(genotypes)
        if not genotypes:
            return []
        pool = self.search_space.decode_pool(genotypes)
        performance = pool.performance
        if self.engine is not None:
            rows = self.engine.evaluate_batch(performance, self.analyzer)
        else:
            rows = self.analyzer.evaluate_batch(performance)
        errors = self.accuracy_model.error_percent_pool(pool.accuracy)
        return [
            self._package(tuple(genotype), name, row[0], error, params, macs)
            for genotype, name, row, error, params, macs in zip(
                pool.genotypes.tolist(),
                performance.names,
                rows,
                errors,
                pool.accuracy.sums("params"),
                performance.sums("macs"),
            )
        ]

    def _package(
        self,
        genotype: Tuple[int, ...],
        name: str,
        partition_eval,
        error: float,
        total_params: int,
        total_macs: int,
    ) -> Tuple[np.ndarray, Dict]:
        """Objective vector and metadata record of one costed candidate.

        ``total_params`` counts the accuracy-shape architecture and
        ``total_macs`` the performance-shape one.
        """
        error = float(error)
        all_cloud, all_edge = partition_eval.all_cloud, partition_eval.all_edge
        best_latency = partition_eval.best_latency
        best_energy = partition_eval.best_energy

        if self.partition_within:
            latency = best_latency.latency_s
            energy = best_energy.energy_j
        else:
            latency = all_edge.latency_s
            energy = all_edge.energy_j

        evaluation = CandidateEvaluation(
            genotype=genotype,
            architecture_name=name,
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
                "all_cloud_latency_s": float(all_cloud.latency_s),
                "all_cloud_energy_j": float(all_cloud.energy_j),
                "num_partition_points": len(partition_eval.partition_point_indices),
                "total_params": int(total_params),
                "total_macs": int(total_macs),
            },
        )
        objectives = np.array([error, float(latency), float(energy)])
        return objectives, {"evaluation": evaluation}

    # ------------------------------------------------------------------ adapters for the MOBO loop
    def feature_fn(self, genotype: Sequence[int]) -> np.ndarray:
        """Adapter returning the genotype's unit-cube features."""
        return self.search_space.to_features(genotype)

    def sample_fn(self, rng) -> np.ndarray:
        """Adapter sampling a random valid genotype."""
        return self.search_space.sample(rng)

    def neighbor_fn(self, genotype: Sequence[int], count: int, rng) -> np.ndarray:
        """Adapter proposing valid neighbours of a genotype."""
        return self.search_space.neighbours(genotype, count, rng)
