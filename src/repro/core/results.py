"""Result containers for LENS and baseline architecture searches."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim.pareto import pareto_front_mask
from repro.partition.deployment import DeploymentOption

#: The three objectives every search minimises, in order; also the metric
#: names understood by :meth:`SearchResult.objective_matrix`.
METRIC_NAMES = ("error_percent", "latency_s", "energy_j")


@dataclass
class CandidateEvaluation:
    """Full evaluation record of one explored architecture.

    Attributes
    ----------
    genotype:
        The encoded architecture (search-space index vector).
    architecture_name:
        Deterministic name assigned by the search space.
    error_percent:
        Estimated test error of the candidate.
    latency_s / energy_j:
        The *objective* values used by the search.  For LENS these are the
        best-deployment values (Algorithm 1); for the Traditional baseline
        they are the All-Edge values.
    best_latency_option / best_energy_option:
        The deployment options achieving the latency and energy objectives.
    all_edge_latency_s / all_edge_energy_j:
        All-Edge reference values, kept for the partition-within-vs-after
        comparison (Fig. 7).
    iteration / phase:
        Bookkeeping from the optimization loop.
    """

    genotype: Tuple[int, ...]
    architecture_name: str
    error_percent: float
    latency_s: float
    energy_j: float
    best_latency_option: DeploymentOption
    best_energy_option: DeploymentOption
    all_edge_latency_s: float
    all_edge_energy_j: float
    iteration: int = 0
    phase: str = "init"
    extras: Dict = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Look up one of the three objective metrics by name."""
        if name not in METRIC_NAMES:
            raise ValueError(f"metric must be one of {METRIC_NAMES}, got {name!r}")
        return float(getattr(self, name))

    @property
    def energy_mj(self) -> float:
        """Energy objective in millijoules (the unit the paper plots)."""
        return self.energy_j * 1e3

    @property
    def latency_ms(self) -> float:
        """Latency objective in milliseconds."""
        return self.latency_s * 1e3

    def to_dict(self) -> Dict:
        return {
            "genotype": list(self.genotype),
            "architecture_name": self.architecture_name,
            "error_percent": self.error_percent,
            "latency_s": self.latency_s,
            "energy_j": self.energy_j,
            "best_latency_option": self.best_latency_option.to_dict(),
            "best_energy_option": self.best_energy_option.to_dict(),
            "all_edge_latency_s": self.all_edge_latency_s,
            "all_edge_energy_j": self.all_edge_energy_j,
            "iteration": self.iteration,
            "phase": self.phase,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CandidateEvaluation":
        """Inverse of :meth:`to_dict` (used by stored search outcomes)."""
        return cls(
            genotype=tuple(int(v) for v in data["genotype"]),
            architecture_name=data["architecture_name"],
            error_percent=float(data["error_percent"]),
            latency_s=float(data["latency_s"]),
            energy_j=float(data["energy_j"]),
            best_latency_option=DeploymentOption.from_dict(data["best_latency_option"]),
            best_energy_option=DeploymentOption.from_dict(data["best_energy_option"]),
            all_edge_latency_s=float(data["all_edge_latency_s"]),
            all_edge_energy_j=float(data["all_edge_energy_j"]),
            iteration=int(data.get("iteration", 0)),
            phase=data.get("phase", "init"),
            extras=dict(data.get("extras", {})),
        )


class SearchResult:
    """All candidates explored by one search run, with Pareto-set helpers."""

    def __init__(self, candidates: Sequence[CandidateEvaluation], label: str = "search"):
        self.candidates: Tuple[CandidateEvaluation, ...] = tuple(candidates)
        self.label = str(label)

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    # ------------------------------------------------------------------ matrices
    def objective_matrix(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> np.ndarray:
        """``(n, len(metrics))`` matrix of the requested metrics."""
        if not self.candidates:
            return np.empty((0, len(metrics)))
        return np.array(
            [[candidate.metric(m) for m in metrics] for candidate in self.candidates]
        )

    def pareto_mask(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> np.ndarray:
        """Non-dominated mask with respect to the requested metrics."""
        matrix = self.objective_matrix(metrics)
        if matrix.size == 0:
            return np.zeros(0, dtype=bool)
        return pareto_front_mask(matrix)

    def pareto_candidates(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> List[CandidateEvaluation]:
        """Candidates on the Pareto front of the requested metrics."""
        mask = self.pareto_mask(metrics)
        return [c for c, keep in zip(self.candidates, mask) if keep]

    def pareto_objectives(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> np.ndarray:
        """Objective matrix restricted to the Pareto front."""
        matrix = self.objective_matrix(metrics)
        if matrix.size == 0:
            return matrix
        return matrix[self.pareto_mask(metrics)]

    def partitioned(
        self,
        metrics: Sequence[str] = ("error_percent", "energy_j"),
        pareto_only: bool = True,
    ) -> "SearchResult":
        """Partition the candidates after the search (the Traditional flow's step 2).

        The paper's baseline runs platform-aware NAS for the edge device and
        only afterwards applies the optimal layer distribution to its Pareto
        set.  Every candidate already carries its best deployment
        (``extras["best_latency_s"]`` / ``extras["best_energy_j"]`` and the
        ``best_*_option`` fields), so this is a pure function of the stored
        candidates: latency and energy become those best-deployment values,
        the architecture and its error are unchanged, and
        ``extras["partitioned_after_search"]`` is set.  ``pareto_only``
        partitions the front of ``metrics`` (the paper's procedure);
        otherwise every explored candidate.
        """
        source = self.pareto_candidates(metrics) if pareto_only else self.candidates
        return SearchResult(
            [
                replace(
                    candidate,
                    latency_s=float(candidate.extras["best_latency_s"]),
                    energy_j=float(candidate.extras["best_energy_j"]),
                    extras={**candidate.extras, "partitioned_after_search": True},
                )
                for candidate in source
            ],
            label=f"{self.label}+partitioned",
        )

    # ------------------------------------------------------------------ selection helpers
    def best_by(self, metric: str) -> CandidateEvaluation:
        """Candidate minimising a single metric."""
        if not self.candidates:
            raise ValueError("the search produced no candidates")
        return min(self.candidates, key=lambda c: c.metric(metric))

    def count_satisfying(
        self,
        max_error_percent: Optional[float] = None,
        max_energy_mj: Optional[float] = None,
        max_latency_ms: Optional[float] = None,
    ) -> int:
        """Number of explored candidates meeting all the given criteria.

        This is the counting used by the paper's Fig. 7 ("number of
        architectures satisfying the respective conditions").
        """
        count = 0
        for candidate in self.candidates:
            if max_error_percent is not None and candidate.error_percent >= max_error_percent:
                continue
            if max_energy_mj is not None and candidate.energy_mj >= max_energy_mj:
                continue
            if max_latency_ms is not None and candidate.latency_ms >= max_latency_ms:
                continue
            count += 1
        return count

    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "candidates": [c.to_dict() for c in self.candidates],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SearchResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            candidates=[CandidateEvaluation.from_dict(c) for c in data["candidates"]],
            label=data.get("label", "search"),
        )
