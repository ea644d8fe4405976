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

from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.envelopes import SearchRequest, check_known_fields, check_schema_version
from repro.api.registry import ACQUISITIONS, SEARCH_SPACES
from repro.api.scenario import SCENARIOS
from repro.api.session import STRATEGIES
from repro.utils.serialization import load_json
from repro.utils.validation import require_integral

#: :class:`~repro.api.envelopes.SearchRequest` fields a spec sets once for
#: every cell of its grid.
BUDGET_FIELDS = (
    "num_initial",
    "num_iterations",
    "candidate_pool_size",
    "acquisition",
    "batch_size",
    "predictor_noise_std",
    "predictor_samples_per_type",
)


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
        Budgets applied to every generated request (same meaning, defaults
        and checks as on :class:`~repro.api.envelopes.SearchRequest`): the
        spec builds one template request from them, so a budget every
        request would reject raises ``ValueError`` here and in
        :meth:`from_dict`, and the values are held as the request holds
        them.
    tags:
        Metadata copied onto every request (excluded from fingerprints).

    The axes default to one cell of the request's defaults: its search
    space, its strategy and its seed.
    """

    scenarios: Tuple[str, ...]
    search_spaces: Tuple[str, ...] = (SearchRequest.search_space,)
    strategies: Tuple[str, ...] = (SearchRequest.strategy,)
    seeds: Tuple[Optional[int], ...] = (SearchRequest.seed,)
    acquisitions: Tuple[str, ...] = ()
    num_initial: int = SearchRequest.num_initial
    num_iterations: int = SearchRequest.num_iterations
    candidate_pool_size: int = SearchRequest.candidate_pool_size
    acquisition: str = SearchRequest.acquisition
    batch_size: int = SearchRequest.batch_size
    predictor_noise_std: float = SearchRequest.predictor_noise_std
    predictor_samples_per_type: int = SearchRequest.predictor_samples_per_type
    tags: Dict[str, Any] = field(default_factory=dict)
    #: The request every cell copies, with only the axis fields replaced.
    _template: SearchRequest = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for axis in ("scenarios", "search_spaces", "strategies", "acquisitions"):
            object.__setattr__(self, axis, tuple(str(s) for s in getattr(self, axis)))
        seeds = tuple(
            None if s is None else require_integral(s, "seed") for s in self.seeds
        )
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "tags", dict(self.tags))
        # every request check runs here, once, and the budgets are held as
        # the requests hold them
        template = SearchRequest(**{name: getattr(self, name) for name in BUDGET_FIELDS})
        for name in BUDGET_FIELDS:
            object.__setattr__(self, name, getattr(template, name))
        object.__setattr__(self, "_template", template)
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
        return [
            self._template.replace(
                scenario=scenario,
                search_space=search_space,
                strategy=strategy,
                acquisition=acquisition,
                seed=seed,
                tags=dict(self.tags),
            )
            for scenario, search_space, strategy, acquisition, seed in product(
                self.scenarios,
                self.search_spaces,
                self.strategies,
                self.acquisitions or (self.acquisition,),
                self.seeds,
            )
        ]

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
            **{name: getattr(self, name) for name in BUDGET_FIELDS},
            "tags": dict(self.tags),
        }
        # emitted only when set, so specs written before the ablation axis
        # and q-batches existed round-trip byte-identically
        if self.acquisitions:
            payload["acquisitions"] = list(self.acquisitions)
        if self.batch_size == SearchRequest.batch_size:
            del payload["batch_size"]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec; missing fields take the dataclass defaults.

        A key that names no field (``seed`` for ``seeds``) raises
        ``ValueError`` naming it, as does a budget every request rejects.
        """
        check_schema_version(data, "CampaignSpec")
        names = {spec_field.name for spec_field in fields(cls) if spec_field.init}
        check_known_fields(data, names | {"schema_version"}, "campaign spec")
        if "scenarios" not in data:
            raise ValueError("campaign spec must declare 'scenarios'")
        return cls(**{name: value for name, value in data.items() if name in names})

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
