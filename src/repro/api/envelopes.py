"""Versioned request/outcome envelopes for search runs.

A :class:`SearchRequest` declares *what* to run — scenario, strategy and
budgets — entirely in plain data, so runs can be saved, replayed and
compared; a :class:`SearchOutcome` pairs the request with every explored
candidate plus timing and cache statistics.  Both round-trip losslessly
through ``to_dict``/``from_dict`` and serialize with
:func:`repro.utils.serialization.to_jsonable` / :mod:`json` without custom
encoders.

Envelopes carry a ``schema_version``; :func:`check_schema_version` rejects
payloads written by a *newer* library (older versions are upgraded in
``from_dict`` as the schema evolves).

:func:`request_fingerprint` derives a deterministic hex key from a request's
computational content (everything except tag metadata); campaign run stores
(:mod:`repro.campaign.store`) key stored outcomes by it so interrupted
grids can resume without re-running finished cells.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.api.scenario import DEFAULT_SCENARIO, SCENARIOS, Scenario
from repro.core.results import CandidateEvaluation, SearchResult
from repro.hardware.profiler import (
    DEFAULT_PROFILING_NOISE_STD,
    DEFAULT_SAMPLES_PER_TYPE,
    MIN_SAMPLES_PER_TYPE,
)
from repro.optim.pareto import FrontHistory
from repro.nn.spaces import DEFAULT_SEARCH_SPACE
from repro.utils.serialization import load_json
from repro.utils.validation import (
    require_finite,
    require_integral,
    require_non_negative,
    require_positive,
)

#: Current envelope schema version.
#:
#: * **v1** — the original request/outcome envelopes.
#: * **v2** — requests gained ``search_space`` (the named workload to
#:   search, see :data:`repro.api.registry.SEARCH_SPACES`).  v1 payloads
#:   upgrade in ``from_dict`` by defaulting to
#:   :data:`~repro.nn.spaces.DEFAULT_SEARCH_SPACE`; their fingerprints are
#:   unchanged (see :func:`request_fingerprint`).
#: * **v3** — requests gained ``batch_size`` (candidates proposed per BO
#:   iteration, default :data:`DEFAULT_BATCH_SIZE`; dropped from
#:   fingerprints at the default so v1/v2 fingerprints are unchanged) and
#:   outcomes gained ``front_history`` (the per-evaluation hypervolume
#:   trajectory, :class:`repro.optim.pareto.FrontHistory`).  Older payloads
#:   upgrade with ``batch_size=1`` and no history.
#: * **v4** — outcomes gained ``health`` (resilience event counters by
#:   ``H_*`` code, see :mod:`repro.resilience.health`).  Requests are
#:   unchanged, so every fingerprint is unchanged; older outcome payloads
#:   upgrade with empty counters.
SCHEMA_VERSION = 4

#: Default candidates-per-iteration; requests at the default fingerprint
#: identically to pre-v3 requests.
DEFAULT_BATCH_SIZE = 1

#: Request fields excluded from fingerprints: pure metadata that cannot
#: change what a run computes.
FINGERPRINT_EXCLUDED_FIELDS = ("schema_version", "tags")

#: Hex digits kept in a request fingerprint (64 bits — ample for run stores).
FINGERPRINT_LENGTH = 16

#: Request fields that count something: whole numbers only, held as ``int``
#: so a request and its stored envelope share one fingerprint.
COUNT_FIELDS = (
    "num_initial",
    "num_iterations",
    "candidate_pool_size",
    "batch_size",
    "predictor_samples_per_type",
)


def request_fingerprint(request: "SearchRequest") -> str:
    """Deterministic hex fingerprint of a request's computational content.

    The fingerprint is a truncated SHA-256 of the request's canonical JSON
    form with :data:`FINGERPRINT_EXCLUDED_FIELDS` removed, so two requests
    with the same *declared* content — regardless of tag metadata or the
    library version that wrote them — share one fingerprint.  Run stores key
    stored outcomes by it to make campaigns resumable.

    Fields added by later schema versions are dropped from the payload while
    they hold their upgrade default (``search_space="lens-vgg"``,
    ``batch_size=1``), so a schema-v1 request keeps the exact fingerprint it
    had when v1 was current — pinned by the golden-file tests in
    ``tests/test_envelopes_golden.py`` — and stores written before the
    upgrade still resume correctly.  Non-default values hash normally, so
    requests targeting different spaces (or q-batch budgets) never collide.

    Declared content is hashed as-is: a scenario referenced *by name* is
    keyed by that name (its registry resolution may legitimately change),
    so it never shares a fingerprint with the same scenario passed inline.
    Stick to one form within a campaign — grids built from
    :class:`~repro.campaign.gridspec.CampaignSpec` always use names.
    """
    payload = request.to_dict()
    for name in FINGERPRINT_EXCLUDED_FIELDS:
        payload.pop(name, None)
    if payload.get("search_space") == DEFAULT_SEARCH_SPACE:
        payload.pop("search_space")
    if payload.get("batch_size") == DEFAULT_BATCH_SIZE:
        payload.pop("batch_size")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:FINGERPRINT_LENGTH]


def check_schema_version(data: Mapping[str, Any], what: str) -> int:
    """Validate the ``schema_version`` field of a serialized envelope."""
    version = int(data.get("schema_version", SCHEMA_VERSION))
    if version < 1 or version > SCHEMA_VERSION:
        raise ValueError(
            f"cannot read {what} with schema_version={version}; "
            f"this library supports versions 1..{SCHEMA_VERSION}"
        )
    return version


def check_known_fields(data: Mapping[str, Any], known: Iterable[str], what: str) -> None:
    """Reject the keys of a serialized envelope that name no field.

    A typo'd key would otherwise be dropped, and the payload would silently
    describe another run; the error names every unknown key.
    """
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {what} fields {unknown}; known fields: {sorted(known)}"
        )


@dataclass(frozen=True)
class SearchRequest:
    """Declarative description of one search run.

    Parameters
    ----------
    scenario:
        Scenario name (resolved through :data:`repro.api.scenario.SCENARIOS`)
        or an inline :class:`Scenario`.
    strategy:
        Search strategy name (``"lens"``, ``"traditional"`` or ``"random"``,
        see :data:`repro.api.session.STRATEGIES`).
    search_space:
        Named search space to explore (``"lens-vgg"``, ``"resnet-v1"``,
        ``"seq-conv1d"`` or anything registered in
        :data:`repro.api.registry.SEARCH_SPACES`).
    num_initial / num_iterations / candidate_pool_size / acquisition:
        Budgets and acquisition of the optimization loop (Algorithm 2).
    batch_size:
        Candidates proposed (and batch-evaluated) per BO iteration; the
        total budget stays ``num_iterations`` evaluations.  ``1`` is the
        classic one-point loop; pair ``q > 1`` with ``acquisition="epdc"``
        for hypervolume-driven q-batch selection.
    predictor_noise_std / predictor_samples_per_type:
        Performance-predictor training settings (ignored when a pre-trained
        predictor is supplied to :func:`repro.api.session.run_search`).  The
        noise std must be a finite, non-negative real number and is held as
        ``float``, so a request and its stored envelope share one
        fingerprint.
    seed:
        Master seed of the run: a whole number, held as ``int``, or ``None``.
    tags:
        Free-form metadata carried through to the outcome.
    """

    scenario: Union[str, Scenario] = DEFAULT_SCENARIO
    strategy: str = "lens"
    search_space: str = DEFAULT_SEARCH_SPACE
    num_initial: int = 10
    num_iterations: int = 50
    candidate_pool_size: int = 128
    acquisition: str = "ts"
    batch_size: int = DEFAULT_BATCH_SIZE
    predictor_noise_std: float = DEFAULT_PROFILING_NOISE_STD
    predictor_samples_per_type: int = DEFAULT_SAMPLES_PER_TYPE
    seed: Optional[int] = 0
    tags: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        for name in COUNT_FIELDS:
            object.__setattr__(self, name, require_integral(getattr(self, name), name))
        if self.seed is not None:
            object.__setattr__(self, "seed", require_integral(self.seed, "seed"))
        require_positive(self.num_initial, "num_initial")
        if self.num_iterations < 0:
            raise ValueError(
                f"num_iterations must be >= 0, got {self.num_iterations}"
            )
        require_positive(self.candidate_pool_size, "candidate_pool_size")
        require_positive(self.batch_size, "batch_size")
        object.__setattr__(
            self,
            "predictor_noise_std",
            require_finite(self.predictor_noise_std, "predictor_noise_std"),
        )
        require_non_negative(self.predictor_noise_std, "predictor_noise_std")
        if self.predictor_samples_per_type < MIN_SAMPLES_PER_TYPE:
            raise ValueError(
                f"predictor_samples_per_type must be >= {MIN_SAMPLES_PER_TYPE} "
                f"(the profiler's minimum), got {self.predictor_samples_per_type}"
            )

    # ------------------------------------------------------------------ helpers
    @property
    def num_evaluations(self) -> int:
        """Total evaluation budget of the run."""
        return self.num_initial + self.num_iterations

    @property
    def scenario_name(self) -> str:
        """Name of the requested scenario."""
        if isinstance(self.scenario, Scenario):
            return self.scenario.name
        return str(self.scenario)

    def resolve_scenario(self) -> Scenario:
        """The scenario object, resolved by name when necessary."""
        return SCENARIOS.resolve(self.scenario)

    def replace(self, **changes: Any) -> "SearchRequest":
        """Copy of this request with the given fields changed."""
        return replace(self, **changes)

    def fingerprint(self) -> str:
        """Deterministic run-store key; see :func:`request_fingerprint`."""
        return request_fingerprint(self)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        scenario: Any = self.scenario
        if isinstance(scenario, Scenario):
            scenario = scenario.to_dict()
        return {
            "schema_version": self.schema_version,
            "scenario": scenario,
            "strategy": self.strategy,
            "search_space": self.search_space,
            "num_initial": self.num_initial,
            "num_iterations": self.num_iterations,
            "candidate_pool_size": self.candidate_pool_size,
            "acquisition": self.acquisition,
            "batch_size": self.batch_size,
            "predictor_noise_std": self.predictor_noise_std,
            "predictor_samples_per_type": self.predictor_samples_per_type,
            "seed": self.seed,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchRequest":
        """Rebuild a request, upgrading older schema versions in place.

        v1 payloads predate the ``search_space`` field and upgrade to
        :data:`~repro.nn.spaces.DEFAULT_SEARCH_SPACE`; the returned request
        always carries the current :data:`SCHEMA_VERSION` (and the same
        fingerprint the payload had under the schema that wrote it).  Counts
        and the seed load as stored: a non-integral one (``40.9``) or a
        boolean raises ``ValueError`` here instead of loading truncated
        under another fingerprint, and ``10.0`` loads as ``10``.  So does a
        noise std that is not a finite number (``true``, ``"0.1"``).  Missing
        fields take the dataclass defaults; a key that names no field (a typo
        such as ``num_initals``) raises ``ValueError`` naming it.
        """
        check_schema_version(data, "SearchRequest")
        names = [request_field.name for request_field in fields(cls)]
        check_known_fields(data, names, "search request")
        values = dict(data, schema_version=SCHEMA_VERSION)
        if isinstance(values.get("scenario"), dict):
            values["scenario"] = Scenario.from_dict(values["scenario"])
        values["tags"] = dict(values.get("tags", {}))
        return cls(**values)


@dataclass
class SearchOutcome:
    """Everything one search run produced, paired with its request.

    Attributes
    ----------
    request:
        The request that was executed.
    scenario:
        The *resolved* scenario (inlined so the outcome stays interpretable
        even if the registry changes later).
    label:
        Result label (strategy name).
    candidates:
        Every explored :class:`CandidateEvaluation`, in evaluation order.
    wall_time_s:
        Wall-clock duration of the run.
    engine_stats:
        Cache statistics of the evaluation engine that backed the run.
    front_history:
        Per-evaluation Pareto-front trajectory
        (:class:`repro.optim.pareto.FrontHistory`) — hypervolume, front size
        and the joining candidate after each evaluation.  ``None`` for
        outcomes written before schema v3.
    health:
        Resilience event counters by ``H_*`` code (see
        :mod:`repro.resilience.health`): how often the degradation ladder
        fired, evaluations were quarantined, a duplicate was accepted or
        the random strategy fell short of its budget.  Empty for healthy
        runs and for outcomes written before schema v4.  Outcomes stored
        by older versions may carry a code since retired (such as
        ``H_RESUMED``); they load unchanged and ``repro report`` lists it
        as "(unknown code)".  Like ``wall_time_s`` and
        ``engine_stats``, this describes *how* the run went, not *what* it
        computed — it never affects the request fingerprint.
    """

    request: SearchRequest
    scenario: Scenario
    label: str
    candidates: Tuple[CandidateEvaluation, ...]
    wall_time_s: float = 0.0
    engine_stats: Dict[str, int] = field(default_factory=dict)
    front_history: Optional[FrontHistory] = None
    health: Dict[str, int] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        self.candidates = tuple(self.candidates)

    # ------------------------------------------------------------------ views
    @property
    def result(self) -> SearchResult:
        """The candidates as a :class:`SearchResult` (Pareto helpers etc.)."""
        return SearchResult(self.candidates, label=self.label)

    def pareto_candidates(
        self, metrics: Sequence[str] = ("error_percent", "energy_j")
    ) -> List[CandidateEvaluation]:
        """Candidates on the Pareto front of the requested metrics."""
        return self.result.pareto_candidates(metrics)

    def best_by(self, metric: str) -> CandidateEvaluation:
        """Candidate minimising a single metric."""
        return self.result.best_by(metric)

    def __len__(self) -> int:
        return len(self.candidates)

    def summary(self) -> Dict[str, Any]:
        """Compact run summary (for logs and comparison tables)."""
        return {
            "scenario": self.scenario.name,
            "strategy": self.label,
            "num_candidates": len(self.candidates),
            "pareto_size": len(self.pareto_candidates()),
            "wall_time_s": self.wall_time_s,
        }

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "request": self.request.to_dict(),
            "scenario": self.scenario.to_dict(),
            "label": self.label,
            "candidates": [c.to_dict() for c in self.candidates],
            "wall_time_s": self.wall_time_s,
            "engine_stats": dict(self.engine_stats),
            "front_history": (
                None if self.front_history is None else self.front_history.to_dict()
            ),
            "health": dict(self.health),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchOutcome":
        version = check_schema_version(data, "SearchOutcome")
        return cls(
            request=SearchRequest.from_dict(data["request"]),
            scenario=Scenario.from_dict(data["scenario"]),
            label=data.get("label", "search"),
            candidates=tuple(
                CandidateEvaluation.from_dict(c) for c in data.get("candidates", [])
            ),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
            engine_stats={
                str(k): int(v) for k, v in data.get("engine_stats", {}).items()
            },
            front_history=(
                None
                if data.get("front_history") is None
                else FrontHistory.from_dict(data["front_history"])
            ),
            health={str(k): int(v) for k, v in (data.get("health") or {}).items()},
            schema_version=version,
        )


# ---------------------------------------------------------------------- file loading

def load_request(path: Union[str, Path]) -> SearchRequest:
    """Load a :class:`SearchRequest` from a JSON file."""
    return SearchRequest.from_dict(load_json(path))


def load_outcome(path: Union[str, Path]) -> SearchOutcome:
    """Load a :class:`SearchOutcome` from a JSON file."""
    return SearchOutcome.from_dict(load_json(path))
