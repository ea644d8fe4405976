"""Declarative campaign grids: scenarios x search spaces x strategies x seeds.

A :class:`CampaignSpec` names the axes of a campaign (which scenarios, which
search spaces, which strategies, which seeds) plus the per-run budgets
shared by every cell, and
expands into the concrete :class:`~repro.api.envelopes.SearchRequest` list
via :meth:`CampaignSpec.requests`.  Like the envelopes it is plain data:
``to_dict``/``from_dict`` round-trip losslessly and :meth:`CampaignSpec.load`
reads a spec from a JSON file, so a whole campaign is reproducible from one
committed document.

Expansion order is scenario-major (scenario, then search space, then
strategy, then seed) and deterministic, but nothing downstream depends on
it: the runner keys work by request fingerprint, not position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.envelopes import (
    COUNT_FIELDS,
    DEFAULT_BATCH_SIZE,
    SearchRequest,
    check_schema_version,
)
from repro.api.registry import ACQUISITIONS, SEARCH_SPACES
from repro.api.scenario import SCENARIOS
from repro.api.session import STRATEGIES
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.utils.serialization import load_json
from repro.utils.validation import require_finite, require_integral


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign: a request grid declared as axes plus shared budgets.

    Parameters
    ----------
    scenarios:
        Scenario names, resolved through
        :data:`repro.api.scenario.SCENARIOS` at run time.
    search_spaces:
        Search-space names from :data:`repro.api.registry.SEARCH_SPACES`;
        every scenario is searched once per space.
    strategies:
        Strategy names from :data:`repro.api.session.STRATEGIES`.
    seeds:
        Master seeds (whole numbers or ``None``); every scenario x space x
        strategy cell runs once per seed.
    acquisitions:
        Optional acquisition-strategy axis (names from
        :data:`repro.api.registry.ACQUISITIONS`).  When set, every
        scenario x space x strategy cell runs once per acquisition (an
        ablation grid, e.g. ``("epdc", "ts", "random")``); when empty the
        scalar ``acquisition`` budget applies to every cell as before.
    num_initial / num_iterations / candidate_pool_size / acquisition /
    batch_size / predictor_noise_std / predictor_samples_per_type:
        Budgets applied to every generated request (same meaning as on
        :class:`~repro.api.envelopes.SearchRequest`).  Seeds and counts must
        be whole numbers and the noise std a finite number, held as
        ``float``: ``ValueError`` rather than truncation or coercion, here
        and in :meth:`from_dict`.
    tags:
        Metadata copied onto every request (excluded from fingerprints).
    """

    scenarios: Tuple[str, ...]
    search_spaces: Tuple[str, ...] = (DEFAULT_SEARCH_SPACE,)
    strategies: Tuple[str, ...] = ("lens",)
    seeds: Tuple[Optional[int], ...] = (0,)
    acquisitions: Tuple[str, ...] = ()
    num_initial: int = 10
    num_iterations: int = 50
    candidate_pool_size: int = 128
    acquisition: str = "ts"
    batch_size: int = DEFAULT_BATCH_SIZE
    predictor_noise_std: float = 0.03
    predictor_samples_per_type: int = 200
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(str(s) for s in self.scenarios))
        object.__setattr__(
            self, "search_spaces", tuple(str(s) for s in self.search_spaces)
        )
        object.__setattr__(self, "strategies", tuple(str(s) for s in self.strategies))
        seeds = tuple(
            None if s is None else require_integral(s, "seed") for s in self.seeds
        )
        object.__setattr__(self, "seeds", seeds)
        for name in COUNT_FIELDS:
            object.__setattr__(self, name, require_integral(getattr(self, name), name))
        object.__setattr__(
            self,
            "predictor_noise_std",
            require_finite(self.predictor_noise_std, "predictor_noise_std"),
        )
        object.__setattr__(
            self, "acquisitions", tuple(str(s) for s in self.acquisitions)
        )
        for axis in ("scenarios", "search_spaces", "strategies", "seeds"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"campaign {axis} must be non-empty")
            if len(set(values)) != len(values):
                raise ValueError(f"campaign {axis} contain duplicates: {values}")
        # the acquisitions axis is optional, but may not repeat entries
        if len(set(self.acquisitions)) != len(self.acquisitions):
            raise ValueError(
                f"campaign acquisitions contain duplicates: {self.acquisitions}"
            )
        if self.batch_size < 1:
            raise ValueError("campaign batch_size must be >= 1")

    # ------------------------------------------------------------------ expansion
    @property
    def num_cells(self) -> int:
        """Size of the request grid."""
        return (
            len(self.scenarios)
            * len(self.search_spaces)
            * len(self.strategies)
            * len(self.acquisitions or (self.acquisition,))
            * len(self.seeds)
        )

    def requests(self) -> List[SearchRequest]:
        """The full request grid, in deterministic scenario-major order."""
        grid: List[SearchRequest] = []
        for scenario in self.scenarios:
            for search_space in self.search_spaces:
                for strategy in self.strategies:
                    for acquisition in self.acquisitions or (self.acquisition,):
                        for seed in self.seeds:
                            grid.append(
                                SearchRequest(
                                    scenario=scenario,
                                    strategy=strategy,
                                    search_space=search_space,
                                    num_initial=self.num_initial,
                                    num_iterations=self.num_iterations,
                                    candidate_pool_size=self.candidate_pool_size,
                                    acquisition=acquisition,
                                    batch_size=self.batch_size,
                                    predictor_noise_std=self.predictor_noise_std,
                                    predictor_samples_per_type=self.predictor_samples_per_type,
                                    seed=seed,
                                    tags=dict(self.tags),
                                )
                            )
        return grid

    def validate(self) -> "CampaignSpec":
        """Resolve every axis name eagerly, before any cell runs.

        Raises the registries' suggestion-bearing
        :class:`~repro.api.registry.RegistryError` on the first unknown
        scenario, search-space or strategy name, so a typo fails the
        campaign up front instead of mid-grid (or inside a worker process).
        """
        for name in self.scenarios:
            SCENARIOS.get(name)
        for name in self.search_spaces:
            SEARCH_SPACES.get(name)
        for name in self.strategies:
            STRATEGIES.get(name)
        for name in self.acquisitions or (self.acquisition,):
            ACQUISITIONS.get(name)
        return self

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "schema_version": 1,
            "scenarios": list(self.scenarios),
            "search_spaces": list(self.search_spaces),
            "strategies": list(self.strategies),
            "seeds": list(self.seeds),
            "num_initial": self.num_initial,
            "num_iterations": self.num_iterations,
            "candidate_pool_size": self.candidate_pool_size,
            "acquisition": self.acquisition,
            "predictor_noise_std": self.predictor_noise_std,
            "predictor_samples_per_type": self.predictor_samples_per_type,
            "tags": dict(self.tags),
        }
        # emitted only when set, so specs written before the ablation axis
        # existed round-trip byte-identically
        if self.acquisitions:
            payload["acquisitions"] = list(self.acquisitions)
        if self.batch_size != DEFAULT_BATCH_SIZE:
            payload["batch_size"] = self.batch_size
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        check_schema_version(data, "CampaignSpec")
        known = {
            "schema_version", "scenarios", "search_spaces", "strategies",
            "seeds", "acquisitions", "num_initial", "num_iterations",
            "candidate_pool_size", "acquisition", "batch_size",
            "predictor_noise_std", "predictor_samples_per_type", "tags",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            # a typo'd key would otherwise silently run a different campaign
            raise ValueError(
                f"unknown campaign spec fields {unknown}; "
                f"known fields: {sorted(known)}"
            )
        if "scenarios" not in data:
            raise ValueError("campaign spec must declare 'scenarios'")
        return cls(
            scenarios=tuple(data["scenarios"]),
            search_spaces=tuple(
                data.get("search_spaces", (DEFAULT_SEARCH_SPACE,))
            ),
            strategies=tuple(data.get("strategies", ("lens",))),
            seeds=tuple(data.get("seeds", (0,))),
            acquisitions=tuple(data.get("acquisitions", ())),
            num_initial=data.get("num_initial", 10),
            num_iterations=data.get("num_iterations", 50),
            candidate_pool_size=data.get("candidate_pool_size", 128),
            acquisition=data.get("acquisition", "ts"),
            batch_size=data.get("batch_size", DEFAULT_BATCH_SIZE),
            predictor_noise_std=data.get("predictor_noise_std", 0.03),
            predictor_samples_per_type=data.get("predictor_samples_per_type", 200),
            tags=dict(data.get("tags", {})),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(load_json(path))


def expand_requests(
    spec: Union[CampaignSpec, Sequence[SearchRequest]]
) -> List[SearchRequest]:
    """Normalise a spec-or-request-list into the concrete request grid."""
    if isinstance(spec, CampaignSpec):
        return spec.requests()
    requests = list(spec)
    for request in requests:
        if not isinstance(request, SearchRequest):
            raise TypeError(
                f"expected a CampaignSpec or SearchRequests, got {type(request)!r}"
            )
    return requests
