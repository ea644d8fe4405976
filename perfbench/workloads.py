"""The benchmark's three workloads: inputs, set-up, unit of work and checks.

Every workload drives the program through its public API only and follows
the same life cycle, run by ``worker.py``:

``setup()``
    imports every program module the workload uses, so that set-up time
    covers the imports, and builds what the first unit needs;
``prepare_inputs()``
    generates the benchmark's own inputs that set-up does not need;
``run_unit(tracer)``
    one timed unit of work;
``inspect(raw)``
    untimed: checks the unit's outputs and returns its operation count,
    failures, quality, outcome digest and per-layer counters.

Inputs come from the workload seed alone: the same seed gives the same
requests and the same fleet replay.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Scenario of the search workload and of the served model.
SEARCH_SCENARIO = "wifi-3mbps/jetson-tx2-gpu"

#: The campaign grid's spaces and scenarios (each cell runs twice).
CAMPAIGN_SPACES = ("lens-vgg", "resnet-v1", "seq-conv1d")
CAMPAIGN_SCENARIOS = (
    "wifi-3mbps/jetson-tx2-gpu",
    "lte-3mbps/jetson-tx2-gpu",
    "3g-3mbps/jetson-tx2-cpu",
)
CAMPAIGN_REPEATS = 2
#: One pool worker: the measuring thread is pinned to one CPU, and its forked
#: workers with it (see ``worker.py``).  The cells still cross a process
#: boundary, so hand-off and the store are measured.
CAMPAIGN_WORKERS = 1

#: Fixed hypervolume normalisation boxes, ``(lower, upper)`` per objective
#: (error %, latency s, energy J).  Latency and energy run from zero to twice
#: the All-Cloud cost of the space's input under the scenario's channel, which
#: bounds every candidate's best deployment; points outside a box add no volume.
BOXES: Dict[Tuple[str, str], Tuple[Tuple[float, ...], Tuple[float, ...]]] = {
    ("lens-vgg", "wifi-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 0.789)),
    ("lens-vgg", "lte-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 2.090)),
    ("lens-vgg", "3g-3mbps/jetson-tx2-cpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 2.750)),
    ("resnet-v1", "wifi-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 0.789)),
    ("resnet-v1", "lte-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 2.090)),
    ("resnet-v1", "3g-3mbps/jetson-tx2-cpu"): ((15.0, 0.0, 0.0), (40.0, 0.823, 2.750)),
    ("seq-conv1d", "wifi-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (45.0, 0.532, 0.503)),
    ("seq-conv1d", "lte-3mbps/jetson-tx2-gpu"): ((15.0, 0.0, 0.0), (45.0, 0.532, 1.333)),
    ("seq-conv1d", "3g-3mbps/jetson-tx2-cpu"): ((15.0, 0.0, 0.0), (45.0, 0.532, 1.754)),
}

#: The served model: a fixed lens-vgg genotype whose best energy deployment
#: splits after pool5, with switching thresholds near 0.6, 3.6 and 12 Mbps.
SERVED_GENOTYPE = (0, 0, 3, 1, 0, 0, 1, 1, 2, 2, 2, 1, 0, 0, 3, 0, 1, 1, 0, 1, 0, 0, 1, 5)
SERVED_PREDICTOR_SEED = 0
SERVE_SMOOTHING = 0.6
SERVE_SLA_S = 0.1
SERVE_STALL_PROBABILITY = 0.03
#: Table-I regions and their average uplinks (Mbps); they straddle the
#: served model's thresholds, so the replay switches deployments.
SERVE_REGIONS = (("South Korea", 16.1), ("USA", 7.5), ("Afghanistan", 0.7))
#: Clients whose decisions are compared with the scalar controller.
SERVE_PARITY_CLIENTS = 48

#: Relative tolerance of the re-costing check (batched vs scalar costing).
RECOST_RTOL = 1e-9


@dataclass(frozen=True)
class Budget:
    """Per-unit sizes of the workloads."""

    num_initial: int
    num_iterations: int
    pool_size: int
    predictor_samples: int
    clients: int
    ticks: int


#: The paper's budget (10 + 300 evaluations) and a 10k-client, 1000-tick fleet.
PAPER = Budget(10, 300, 128, 200, 10_000, 1_000)
#: Tiny sizes for the smoke tests.
SMOKE = Budget(4, 6, 16, 40, 300, 120)


# ---------------------------------------------------------------------- helpers


def hypervolume(points: np.ndarray, lower: Sequence[float], upper: Sequence[float]) -> float:
    """Exact hypervolume of minimised 3-D points inside the box ``[lower, upper]``.

    Points are normalised to the unit box (reference point ``(1, 1, 1)``);
    points that do not dominate the reference add nothing.
    """
    lower = np.asarray(lower, dtype=float)
    p = (np.asarray(points, dtype=float).reshape(-1, 3) - lower) / (np.asarray(upper) - lower)
    p = np.clip(p, 0.0, None)
    p = p[(p < 1.0).all(axis=1)]
    dominated = [
        bool(np.any(np.all(p <= q, axis=1) & np.any(p < q, axis=1))) for q in p
    ]
    p = p[~np.asarray(dominated, dtype=bool)] if len(p) else p
    p = p[np.argsort(p[:, 2], kind="stable")]
    volume = 0.0
    for i in range(len(p)):
        depth = (p[i + 1, 2] if i + 1 < len(p) else 1.0) - p[i, 2]
        if depth > 0.0:
            volume += depth * _area(p[: i + 1, :2])
    return volume


def _area(xy: np.ndarray) -> float:
    """Area dominated by minimised 2-D points inside the unit square."""
    area, best_y = 0.0, 1.0
    for x, y in xy[np.argsort(xy[:, 0], kind="stable")]:
        if y < best_y:
            area += (1.0 - x) * (best_y - y)
            best_y = y
    return area


def objective_rows(outcome) -> np.ndarray:
    return np.array(
        [[c.error_percent, c.latency_s, c.energy_j] for c in outcome.candidates],
        dtype=float,
    ).reshape(-1, 3)


def outcome_quality(outcome) -> float:
    lower, upper = BOXES[(outcome.request.search_space, outcome.request.scenario_name)]
    return hypervolume(objective_rows(outcome), lower, upper)


def outcome_digest(outcome) -> str:
    """Digest of everything a search computed (genotypes and exact objectives)."""
    payload = [
        [list(c.genotype), *(float(v).hex() for v in row)]
        for c, row in zip(outcome.candidates, objective_rows(outcome))
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def outcome_counters(outcomes) -> Dict[str, float]:
    """Per-layer counters the outcomes carry: engine stats, health, front joins."""
    counters = dict.fromkeys(
        ("layer_hits", "layer_lookups", "partition_hits", "partition_lookups",
         "health_events", "front_joined", "front_entries"),
        0,
    )
    for outcome in outcomes:
        stats = outcome.engine_stats or {}
        counters["layer_hits"] += stats.get("layer_hits", 0)
        counters["layer_lookups"] += stats.get("layer_hits", 0) + stats.get("layer_misses", 0)
        counters["partition_hits"] += stats.get("partition_hits", 0)
        counters["partition_lookups"] += (
            stats.get("partition_hits", 0) + stats.get("partition_misses", 0)
        )
        counters["health_events"] += sum((outcome.health or {}).values())
        history = outcome.front_history
        if history is not None:
            counters["front_joined"] += sum(1 for e in history.entries if e.joined_front)
            counters["front_entries"] += len(history.entries)
    return counters


def check_search_outcome(outcome, evaluator, space) -> List[str]:
    """Correctness failures of one search outcome (empty when correct).

    Checks the candidate count against the budget, genotype validity,
    finiteness, and re-costs a fixed sample of candidates through the
    scalar ``PartitionAwareEvaluator.evaluate_genotype`` path.
    """
    failures = []
    n = len(outcome.candidates)
    if n != outcome.request.num_evaluations:
        failures.append(f"{n} candidates for a budget of {outcome.request.num_evaluations}")
    invalid = sum(1 for c in outcome.candidates if not space.is_valid(c.genotype))
    if invalid:
        failures.append(f"{invalid} candidates fail {space.space_name}.is_valid")
    rows = objective_rows(outcome)
    if not np.all(np.isfinite(rows)):
        failures.append("non-finite objectives")
    for index in sorted({0, n - 1, *range(0, n, max(1, n // 8))}) if n else ():
        candidate = outcome.candidates[index]
        expected, _ = evaluator.evaluate_genotype(candidate.genotype)
        if not np.allclose(rows[index], expected, rtol=RECOST_RTOL, atol=1e-12):
            failures.append(
                f"candidate {index} re-costs to {list(expected)}, stored {list(rows[index])}"
            )
    return failures


def _digest(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------- workloads


class Workload:
    """Life cycle shared by the three workloads (see the module docstring)."""

    name = "workload"

    def __init__(self, seed: int, budget: Budget, scratch: Path):
        self.seed = int(seed)
        self.budget = budget
        self.scratch = Path(scratch)

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def prepare_inputs(self) -> None:
        """Generate benchmark inputs that set-up does not need."""

    def run_unit(self, tracer) -> Any:
        raise NotImplementedError

    def inspect(self, raw: Any) -> Dict[str, Any]:
        raise NotImplementedError


class SearchWorkload(Workload):
    """One paper-budget lens-vgg Thompson ``run_search`` on a set-up-trained predictor."""

    name = "search-vgg-ts"
    space_name = "lens-vgg"

    def setup(self) -> Dict[str, float]:
        from repro.api import SEARCH_SPACES, EvaluationEngine, SearchRequest, run_search  # noqa: F401

        imported_ns = time.monotonic_ns()
        b = self.budget
        self.request = SearchRequest(
            strategy="lens",
            search_space=self.space_name,
            scenario=SEARCH_SCENARIO,
            acquisition="ts",
            batch_size=1,
            num_initial=b.num_initial,
            num_iterations=b.num_iterations,
            candidate_pool_size=b.pool_size,
            predictor_samples_per_type=b.predictor_samples,
            seed=self.seed,
        )
        self.space = SEARCH_SPACES.create(self.space_name)
        device = self.request.resolve_scenario().resolve_device()
        start = time.perf_counter()
        self.predictor = EvaluationEngine().predictor_for(
            device,
            noise_std=self.request.predictor_noise_std,
            samples_per_type=self.request.predictor_samples_per_type,
            seed=self.request.seed,
        )
        return {"imported_ns": imported_ns, "predictor_s": time.perf_counter() - start}

    def run_unit(self, tracer):
        from repro.api import EvaluationEngine, run_search

        return run_search(self.request, engine=EvaluationEngine(), predictor=self.predictor)

    def inspect(self, outcome) -> Dict[str, Any]:
        from repro.api import EvaluationEngine, build_context

        context = build_context(
            outcome.request, engine=EvaluationEngine(), predictor=self.predictor
        )
        return {
            "operations": len(outcome.candidates),
            "failures": check_search_outcome(outcome, context.evaluator, self.space),
            "quality": outcome_quality(outcome),
            "digest": outcome_digest(outcome),
            "counters": outcome_counters([outcome]),
        }


@dataclass
class CampaignRun:
    store_dir: Path
    result: Any
    fingerprints: List[str]
    outcomes: List[Any]
    summary: Any
    audit: Dict[str, Any]


class CampaignWorkload(Workload):
    """18 random-strategy cells on a one-worker process pool, then the report read path."""

    name = "campaign-random"

    def setup(self) -> Dict[str, float]:
        from repro.analysis.reporting import summarize_campaign  # noqa: F401
        from repro.api import ACQUISITIONS, SCENARIOS, SEARCH_SPACES, STRATEGIES, SearchRequest
        from repro.campaign import open_store, run_campaign, summarize_audit  # noqa: F401

        imported_ns = time.monotonic_ns()
        start = time.perf_counter()
        b = self.budget
        grid = itertools.product(CAMPAIGN_SPACES, CAMPAIGN_SCENARIOS, range(CAMPAIGN_REPEATS))
        self.requests = [
            SearchRequest(
                strategy="random",
                search_space=space,
                scenario=scenario,
                num_initial=b.num_initial,
                num_iterations=b.num_iterations,
                candidate_pool_size=b.pool_size,
                predictor_samples_per_type=b.predictor_samples,
                seed=self.seed * 1000 + index,
            )
            for index, (space, scenario, _) in enumerate(grid)
        ]
        inputs_s = time.perf_counter() - start
        for request in self.requests:  # spec validation, as CampaignSpec.validate does
            SCENARIOS.get(request.scenario_name)
            SEARCH_SPACES.get(request.search_space)
            STRATEGIES.get(request.strategy)
            ACQUISITIONS.get(request.acquisition)
        self.expected = sorted(request.fingerprint() for request in self.requests)
        self._units = 0
        self._store = self._fresh_store()
        return {"imported_ns": imported_ns, "inputs_s": inputs_s}

    def _fresh_store(self):
        from repro.campaign import open_store

        directory = self.scratch / f"store-{self._units}"
        shutil.rmtree(directory, ignore_errors=True)
        self._units += 1
        return open_store(directory)

    def run_unit(self, tracer) -> CampaignRun:
        from repro.analysis.reporting import summarize_campaign
        from repro.campaign import open_store, run_campaign, summarize_audit

        store, self._store = self._store, None
        if store is None:
            store = self._fresh_store()
        result = run_campaign(
            self.requests, store, workers=CAMPAIGN_WORKERS, executor="process-pool"
        )
        with _span(tracer, "campaign.store.read"):
            reopened = open_store(store.directory)
            outcomes = list(reopened.outcomes())
        with _span(tracer, "analysis.summarize"):
            summary = summarize_campaign(outcomes)
            audit = summarize_audit(reopened.iter_audit_records())
        return CampaignRun(
            store.directory, result, reopened.fingerprints(), outcomes, summary, audit
        )

    def inspect(self, run: CampaignRun) -> Dict[str, Any]:
        failures = []
        if sorted(run.fingerprints) != self.expected:
            failures.append("the store does not hold exactly the grid's fingerprints")
        if run.result.failed or run.audit["num_records"]:
            failures.append(
                f"{len(run.result.failed)} cells failed, "
                f"{run.audit['num_records']} failure records in the audit log"
            )
        contexts = {(w.scenario, w.search_space) for w in run.summary.winners}
        if len(run.summary.winners) != len(contexts) or contexts != set(
            itertools.product(CAMPAIGN_SCENARIOS, CAMPAIGN_SPACES)
        ):
            failures.append("the report does not name one winner per scenario x space")
        for outcome in run.outcomes:
            rows = objective_rows(outcome)
            if len(rows) != outcome.request.num_evaluations or not np.all(np.isfinite(rows)):
                failures.append(f"cell {outcome.request.fingerprint()} is incomplete")
        store_bytes = sum(p.stat().st_size for p in run.store_dir.rglob("*") if p.is_file())
        shutil.rmtree(run.store_dir, ignore_errors=True)
        counters = outcome_counters(run.outcomes)
        counters.update(cells_failed=len(run.result.failed), store_bytes=store_bytes)
        by_fingerprint = sorted(
            (outcome.request.fingerprint(), outcome_digest(outcome)) for outcome in run.outcomes
        )
        qualities = [outcome_quality(outcome) for outcome in run.outcomes]
        return {
            "operations": sum(len(outcome.candidates) for outcome in run.outcomes),
            "failures": failures,
            "quality": float(np.mean(qualities)) if qualities else 0.0,
            "digest": _digest(by_fingerprint),
            "counters": counters,
        }


class ServeWorkload(Workload):
    """``ServingSession.run()`` over a seeded 10k-client Table-I replay."""

    name = "serve-fleet"

    def setup(self) -> Dict[str, float]:
        from repro.analysis.runtime_eval import select_runtime_options
        from repro.api import SEARCH_SPACES, EvaluationEngine, scenario_by_name
        from repro.core.runtime import ThresholdAnalysis
        from repro.serving import FleetWorkload, ServingSession  # noqa: F401

        imported_ns = time.monotonic_ns()
        scenario = scenario_by_name(SEARCH_SCENARIO)
        channel = scenario.build_channel()
        start = time.perf_counter()
        predictor = EvaluationEngine().predictor_for(
            scenario.resolve_device(),
            samples_per_type=self.budget.predictor_samples,
            seed=SERVED_PREDICTOR_SEED,
        )
        predictor_s = time.perf_counter() - start
        start = time.perf_counter()
        architecture = SEARCH_SPACES.create("lens-vgg").decode_for_performance(
            list(SERVED_GENOTYPE)
        )
        options = select_runtime_options(
            architecture, predictor, channel, "energy",
            include_all_cloud=True, include_all_edge=True,
        )
        self.analysis = ThresholdAnalysis(
            options=options,
            power_model=channel.power_model,
            round_trip_s=channel.round_trip_s,
            metric="energy",
        )
        return {
            "imported_ns": imported_ns,
            "predictor_s": predictor_s,
            "model_s": time.perf_counter() - start,
        }

    def prepare_inputs(self) -> None:
        from repro.serving import FleetWorkload

        uplinks, regions = fleet_replay(self.seed, self.budget.clients, self.budget.ticks)
        self.fleet = FleetWorkload(uplinks, regions, name=self.name)
        self._served = int(np.isfinite(uplinks).sum())
        self._parity_failures: Optional[List[str]] = None

    def _new_session(self, fleet, **options):
        from repro.serving import ServingSession

        return ServingSession(
            self.analysis, fleet, smoothing=SERVE_SMOOTHING, latency_sla_s=SERVE_SLA_S,
            **options,
        )

    def run_unit(self, tracer):
        return self._new_session(self.fleet).run()

    def _scalar_parity(self) -> List[str]:
        """Sampled clients' decisions against the scalar controller path."""
        from repro.core.runtime import DynamicDeploymentController
        from repro.serving import FleetWorkload
        from repro.wireless.tracker import ThroughputTracker

        uplinks = self.fleet.uplinks_mbps
        rng = np.random.default_rng([self.seed, 1])
        count = min(SERVE_PARITY_CLIENTS, uplinks.shape[1])
        clients = np.sort(rng.choice(uplinks.shape[1], size=count, replace=False))
        sub = FleetWorkload(
            uplinks[:, clients], [self.fleet.regions[i] for i in clients], name="parity"
        )
        report = self._new_session(sub, record_decisions=True).run()
        index_of = {id(option): i for i, option in enumerate(self.analysis.options)}
        mismatches = switches = 0
        for column in range(count):
            controller = DynamicDeploymentController(
                self.analysis,
                tracker=ThroughputTracker(smoothing=SERVE_SMOOTHING, history_limit=0),
            )
            last = -1
            for tick, value in enumerate(sub.uplinks_mbps[:, column]):
                if not math.isnan(value):
                    last = index_of[id(controller.observe_and_select(float(value)))]
                mismatches += int(report.decision_log[tick, column] != last)
            switches += controller.num_switches
        failures = []
        if mismatches:
            failures.append(f"{mismatches} sampled decisions differ from the scalar controller")
        if switches != report.switches:
            failures.append(f"sampled switches {report.switches} != scalar {switches}")
        return failures

    def inspect(self, report) -> Dict[str, Any]:
        if self._parity_failures is None:  # deterministic: checked once per run
            self._parity_failures = self._scalar_parity()
        failures = list(self._parity_failures)
        if report.switches < 1:
            failures.append("the replay never switched deployments")
        if report.served != self._served:
            failures.append(f"served {report.served} of {self._served} valid measurements")
        if not 0 < report.sla_violations < report.served:
            failures.append("the SLA is met by all or by no inferences")
        outcome = {
            key: value
            for key, value in report.to_dict().items()
            if key not in ("decision_time_s", "decisions_per_s", "tick_p50_ms",
                           "tick_p99_ms", "us_per_decision")
        }
        return {
            "operations": report.decisions,
            "failures": failures,
            "quality": 1.0 - report.sla_violation_rate,
            "digest": _digest(outcome),
            "counters": {
                "switches": report.switches,
                "held_ticks": report.held_ticks,
                "anomalies": report.anomalies,
            },
        }


def fleet_replay(seed: int, clients: int, ticks: int) -> Tuple[np.ndarray, List[str]]:
    """A ``(ticks, clients)`` uplink replay (Mbps, NaN = stalled) and region labels.

    Clients are assigned to the Table-I regions round-robin; each follows an
    AR(1) log-normal process around its region's average uplink with
    occasional deep fades, and 3 % of measurements are stalled.
    """
    rng = np.random.default_rng([seed, 0])
    assignment = np.arange(clients) % len(SERVE_REGIONS)
    log_mean = np.log([mbps for _, mbps in SERVE_REGIONS])[assignment]
    volatility, correlation = 0.45, 0.6
    innovation = volatility * math.sqrt(1.0 - correlation**2)
    log_value = rng.normal(log_mean, volatility)
    uplinks = np.empty((ticks, clients))
    for tick in range(ticks):
        log_value = (
            correlation * log_value
            + (1.0 - correlation) * log_mean
            + rng.normal(0.0, innovation, size=clients)
        )
        values = np.exp(log_value)
        values[rng.random(clients) < 0.05] *= 0.15
        uplinks[tick] = np.maximum(values, 0.05)
    uplinks[rng.random(uplinks.shape) < SERVE_STALL_PROBABILITY] = np.nan
    return uplinks, [SERVE_REGIONS[i][0] for i in assignment]


WORKLOADS = {
    "search-vgg-ts": SearchWorkload,
    "campaign-random": CampaignWorkload,
    "serve-fleet": ServeWorkload,
}
