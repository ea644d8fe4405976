"""Running declared experiments: strategy registry and ``run_search``.

This module is the execution half of the experiment API: it resolves a
:class:`~repro.api.envelopes.SearchRequest` into concrete components
(scenario → device, channel, predictor; strategy → search loop), runs the
strategy, and wraps everything into a
:class:`~repro.api.envelopes.SearchOutcome`.

Strategies are registered by name in :data:`STRATEGIES`:

* ``"lens"`` — partition-aware MOBO (the paper's Algorithm 2);
* ``"traditional"`` — platform-aware MOBO using the All-Edge objectives;
* ``"random"`` — uniform-random sampling with the same evaluation budget.

A strategy is a callable ``strategy(context) -> (SearchResult,
OptimizationResult | None)``; registering a new one makes it addressable
from request envelopes immediately.

:func:`run_search` is the one way to run a search.  Callers that need the
resolved components (device, channel, predictor, evaluator) or the raw
optimizer result use its two halves, :func:`build_context` and
:func:`execute_strategy`, directly.  The Traditional baseline's post-hoc
partitioning of its Pareto set is
:meth:`~repro.core.results.SearchResult.partitioned`, a pure function of
the stored candidates (``outcome.result.partitioned()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.accuracy.surrogate import AccuracyModel, AccuracySurrogate
from repro.api.engine import EvaluationEngine, default_engine
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.registry import ACQUISITIONS, SEARCH_SPACES, Registry
from repro.api.scenario import Scenario, ScenarioRegistry
from repro.core.evaluation import PartitionAwareEvaluator
from repro.core.results import METRIC_NAMES, CandidateEvaluation, SearchResult
from repro.hardware.device import DeviceProfile
from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.spaces import EncodedSearchSpace
from repro.optim.mobo import MultiObjectiveBayesianOptimizer, OptimizationResult
from repro.optim.pareto import FrontHistory, compute_front_history
from repro.partition.partitioner import PartitionAnalyzer
from repro.resilience import faults
from repro.resilience.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    HEALTH_LOG_FILENAME,
    CheckpointRecorder,
    SearchCheckpoint,
)
from repro.resilience.health import HealthLog
from repro.utils.blas import blas_threads
from repro.utils.rng import ensure_rng
from repro.wireless.channel import WirelessChannel

#: The three objectives every strategy minimises, in order.
OBJECTIVES = METRIC_NAMES

#: OpenBLAS threads a search runs with.  Its BLAS calls are small (factors
#: and solves of at most a few hundred rows), where a second thread costs
#: more in hand-offs than it saves (``docs/performance.md``).
SEARCH_BLAS_THREADS = 1

#: Optional ``callback(evaluation_index, candidate_evaluation)``.
ProgressCallback = Callable[[int, CandidateEvaluation], None]


@dataclass
class SearchContext:
    """Fully-resolved components of one search run.

    The trailing resilience fields are optional wiring installed by
    :func:`run_search`: a :class:`~repro.resilience.health.HealthLog`
    collecting degradation events, an optional
    :class:`~repro.resilience.checkpoint.CheckpointRecorder` (strategies
    :meth:`~repro.resilience.checkpoint.CheckpointRecorder.bind_rng` their
    generator to it), and the non-finite/retry policy forwarded to the
    optimization loop.
    """

    request: SearchRequest
    scenario: Scenario
    search_space: EncodedSearchSpace
    accuracy_model: AccuracyModel
    device: DeviceProfile
    channel: WirelessChannel
    predictor: BaseLayerPredictor
    analyzer: PartitionAnalyzer
    evaluator: PartitionAwareEvaluator
    engine: EvaluationEngine
    progress_callback: Optional[ProgressCallback] = None
    health: Optional[HealthLog] = None
    recorder: Optional[CheckpointRecorder] = None
    strict_objectives: bool = False
    objective_retries: int = 0
    retry_backoff_s: float = 0.0


def build_context(
    request: Union[SearchRequest, Dict],
    *,
    scenarios: Optional[ScenarioRegistry] = None,
    search_space: Union[EncodedSearchSpace, str, None] = None,
    accuracy_model: Optional[AccuracyModel] = None,
    predictor: Optional[BaseLayerPredictor] = None,
    engine: Optional[EvaluationEngine] = None,
    progress_callback: Optional[ProgressCallback] = None,
) -> SearchContext:
    """Resolve a request into ready-to-run components.

    The search space is created from the request's ``search_space`` name via
    :data:`repro.api.registry.SEARCH_SPACES` (an unknown name raises the
    registry's suggestion-bearing
    :class:`~repro.api.registry.RegistryError`).  Passing ``search_space``
    overrides the request: a *name* is folded into the request itself, and
    a :class:`~repro.nn.spaces.EncodedSearchSpace` instance bypasses the
    registry with its ``space_name`` folded in likewise, so the context's
    request (and therefore the outcome and its fingerprint) records the
    space that ran.  Note the limit of that guarantee: requests only carry the space
    *name*, so an instance that keeps a built-in ``space_name`` (e.g. a
    reconfigured ``LensSearchSpace``, which inherits ``"lens-vgg"``) is
    indistinguishable from the built-in in stores and reports — give custom
    instances their own ``space_name`` when persisting their outcomes.
    ``accuracy_model`` and ``predictor`` likewise override the defaults
    (the analytic accuracy surrogate, and an engine-cached predictor
    trained for the scenario's device with the request's training
    settings).
    """
    if isinstance(request, dict):
        request = SearchRequest.from_dict(request)
    if isinstance(search_space, str):
        request = request.replace(search_space=search_space)
        search_space = None
    elif search_space is not None:
        name = getattr(search_space, "space_name", None)
        if name and name != request.search_space:
            request = request.replace(search_space=str(name))
    ACQUISITIONS.get(request.acquisition)  # raises a listing KeyError if unknown
    if search_space is None:
        search_space = SEARCH_SPACES.create(request.search_space)
    engine = engine or default_engine()
    scenario = request.resolve_scenario(scenarios)
    device = scenario.resolve_device()
    channel = scenario.build_channel()
    if predictor is None:
        predictor = engine.predictor_for(
            device,
            noise_std=request.predictor_noise_std,
            samples_per_type=request.predictor_samples_per_type,
            seed=request.seed,
        )
    analyzer = PartitionAnalyzer(predictor, channel)
    evaluator = PartitionAwareEvaluator(
        search_space=search_space,
        accuracy_model=accuracy_model or AccuracySurrogate(),
        analyzer=analyzer,
        partition_within=request.strategy != "traditional",
        engine=engine,
    )
    return SearchContext(
        request=request,
        scenario=scenario,
        search_space=evaluator.search_space,
        accuracy_model=evaluator.accuracy_model,
        device=device,
        channel=channel,
        predictor=predictor,
        analyzer=analyzer,
        evaluator=evaluator,
        engine=engine,
        progress_callback=progress_callback,
    )


# ---------------------------------------------------------------------- strategies

def _collect_candidates(raw: OptimizationResult) -> List[CandidateEvaluation]:
    candidates: List[CandidateEvaluation] = []
    for point in raw.points:
        evaluation: CandidateEvaluation = point.metadata["evaluation"]
        evaluation.iteration = point.iteration
        evaluation.phase = point.phase
        candidates.append(evaluation)
    return candidates


def _run_mobo(context: SearchContext, label: str) -> Tuple[SearchResult, OptimizationResult]:
    """Shared MOBO loop behind the lens and traditional strategies."""
    request = context.request
    callback = None
    if context.progress_callback is not None:
        progress = context.progress_callback

        def callback(index, point, _archive):
            progress(index, point.metadata["evaluation"])

    optimizer = MultiObjectiveBayesianOptimizer(
        sample_fn=context.evaluator.sample_fn,
        feature_fn=context.evaluator.feature_fn,
        batch_objective_fn=context.evaluator.evaluate_pool,
        num_objectives=len(OBJECTIVES),
        num_initial=request.num_initial,
        num_iterations=request.num_iterations,
        candidate_pool_size=request.candidate_pool_size,
        acquisition=request.acquisition,
        batch_size=request.batch_size,
        neighbor_fn=context.evaluator.neighbor_fn,
        seed=request.seed,
        callback=callback,
        strict=context.strict_objectives,
        objective_retries=context.objective_retries,
        retry_backoff_s=context.retry_backoff_s,
        health=context.health,
    )
    if context.recorder is not None:
        context.recorder.bind_rng(optimizer._rng)
    raw = optimizer.run()
    return SearchResult(_collect_candidates(raw), label=label), raw


def _lens_strategy(context: SearchContext) -> Tuple[SearchResult, OptimizationResult]:
    """Partition-aware MOBO (paper Algorithm 2)."""
    return _run_mobo(context, label="lens")


def _traditional_strategy(context: SearchContext) -> Tuple[SearchResult, OptimizationResult]:
    """Platform-aware MOBO on All-Edge objectives (the paper's baseline)."""
    if context.evaluator.partition_within:
        raise ValueError(
            "traditional strategy requires an evaluator with partition_within=False; "
            "build the context with strategy='traditional'"
        )
    return _run_mobo(context, label="traditional")


#: Pool size the random strategy evaluates per batched call — large enough
#: to amortise the batch setup, small enough that progress callbacks keep
#: firing throughout long searches.
_RANDOM_EVAL_CHUNK = 64


def _random_strategy(context: SearchContext) -> Tuple[SearchResult, None]:
    """Uniform-random search with the same budget (sanity baseline).

    The whole budget is sampled up front (sampling alone consumes the
    generator, so the draw sequence matches the old interleaved loop) and
    costed in chunked pool-level evaluations through the engine's batched
    path.
    """
    request = context.request
    rng = ensure_rng(request.seed)
    if context.recorder is not None:
        context.recorder.bind_rng(rng)
    evaluator = context.evaluator
    seen = set()
    genotypes: List[np.ndarray] = []
    budget = request.num_evaluations
    attempts = 0
    while len(genotypes) < budget and attempts < budget * 20:
        attempts += 1
        genotype = evaluator.sample_fn(rng)
        key = np.asarray(genotype, dtype=int).tobytes()
        if key in seen:
            continue
        seen.add(key)
        genotypes.append(genotype)
    candidates: List[CandidateEvaluation] = []
    for start in range(0, len(genotypes), _RANDOM_EVAL_CHUNK):
        chunk = genotypes[start : start + _RANDOM_EVAL_CHUNK]
        for offset, (_, metadata) in enumerate(evaluator.evaluate_pool(chunk)):
            index = start + offset
            evaluation: CandidateEvaluation = metadata["evaluation"]
            evaluation.iteration = index
            evaluation.phase = "random"
            candidates.append(evaluation)
            if context.progress_callback is not None:
                context.progress_callback(index, evaluation)
    return SearchResult(candidates, label="random"), None


#: Search strategies addressable from request envelopes.
STRATEGIES = Registry(
    "search strategy",
    {
        "lens": _lens_strategy,
        "traditional": _traditional_strategy,
        "random": _random_strategy,
    },
)


# ---------------------------------------------------------------------- execution

def _front_history_of(candidates: List[CandidateEvaluation]) -> FrontHistory:
    """Per-evaluation front trajectory over :data:`OBJECTIVES`.

    Computed post hoc from the evaluation sequence, so every strategy —
    MOBO or random — gets the same telemetry without touching its search
    loop (or its RNG stream).
    """
    objectives = np.array(
        [[c.metric(metric) for metric in OBJECTIVES] for c in candidates],
        dtype=float,
    ).reshape(len(candidates), len(OBJECTIVES))
    return compute_front_history(
        objectives,
        OBJECTIVES,
        labels=[c.architecture_name for c in candidates],
        iterations=[c.iteration for c in candidates],
    )


def execute_strategy(
    context: SearchContext,
) -> Tuple[SearchResult, Optional[OptimizationResult]]:
    """Run the context's strategy and return its result (plus raw MOBO data)."""
    strategy = STRATEGIES.get(context.request.strategy)
    return strategy(context)


def _replay_group_sizes(request: SearchRequest, num_records: int) -> List[int]:
    """Evaluation-group sizes of a search's first ``num_records`` evaluations.

    Mirrors the strategies' batching exactly: the random strategy costs
    pools of :data:`_RANDOM_EVAL_CHUNK`, the MOBO strategies cost one
    ``num_initial`` batch and then ``min(batch_size, remaining)`` per step.
    Only *complete* groups are returned (their sizes sum to at most
    ``num_records``); records past the last group boundary are dropped by
    the resume replay and re-evaluated live, which keeps the warmed engine
    cache bit-identical to the original run's.
    """
    sizes: List[int] = []
    if request.strategy == "random":
        budget = request.num_evaluations
        start = 0
        while start < budget:
            size = min(_RANDOM_EVAL_CHUNK, budget - start)
            if start + size > num_records:
                break
            sizes.append(size)
            start += size
        return sizes
    # MOBO-shaped strategies (lens, traditional)
    if request.num_initial > num_records:
        return sizes
    sizes.append(request.num_initial)
    consumed = 0
    done = request.num_initial
    while consumed < request.num_iterations:
        step = min(request.batch_size, request.num_iterations - consumed)
        if done + step > num_records:
            break
        sizes.append(step)
        consumed += step
        done += step
    return sizes


@blas_threads(SEARCH_BLAS_THREADS)
def run_search(
    request: Union[SearchRequest, Dict, None] = None,
    *,
    scenarios: Optional[ScenarioRegistry] = None,
    search_space: Union[EncodedSearchSpace, str, None] = None,
    accuracy_model: Optional[AccuracyModel] = None,
    predictor: Optional[BaseLayerPredictor] = None,
    engine: Optional[EvaluationEngine] = None,
    progress_callback: Optional[ProgressCallback] = None,
    checkpoint_dir: Union[str, Path, None] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = True,
    strict_objectives: bool = False,
    objective_retries: int = 0,
    retry_backoff_s: float = 0.0,
    **request_fields,
) -> SearchOutcome:
    """Execute a declared search end to end and return its outcome.

    ``run_search(strategy="lens", scenario="wifi-3mbps/jetson-tx2-gpu",
    search_space="resnet-v1")`` is the canonical entry point; a full
    :class:`SearchRequest` (or its dict form) may be passed instead, and
    keyword request fields are applied on top of it.  A ``search_space``
    *name* is a request field like any other (recorded in the outcome and
    the fingerprint); a :class:`~repro.nn.spaces.EncodedSearchSpace`
    *instance* is a component override that bypasses the registry.  The
    outcome embeds the request, the resolved scenario, every explored
    candidate, the engine's cache statistics and the run's resilience
    counters, and round-trips through ``to_dict``/``from_dict``.

    Passing ``checkpoint_dir`` makes the run crash-safe: the evaluated
    history is snapshotted every ``checkpoint_every`` evaluations into
    ``<checkpoint_dir>/<fingerprint>/`` (atomic temp-write+rename), and —
    with ``resume=True``, the default — an existing snapshot is replayed
    through the evaluation-engine cache before the strategy runs, so a
    resumed search produces a bitwise-identical outcome to an
    uninterrupted one (see :mod:`repro.resilience.checkpoint` and
    ``docs/robustness.md``).  ``strict_objectives`` / ``objective_retries``
    / ``retry_backoff_s`` set the non-finite-quarantine and flaky-objective
    retry policy of the optimization loop.

    The whole run — predictor training, resume replay, the strategy and the
    front history — executes with every loaded OpenBLAS set to
    :data:`SEARCH_BLAS_THREADS` thread, and the previous count is restored
    afterwards (:func:`repro.utils.blas.blas_threads`).  The count is
    process-wide while the run lasts, and the outcome does not depend on it.
    """
    if isinstance(search_space, str):
        request_fields["search_space"] = search_space
        search_space = None
    if request is None:
        request = SearchRequest(**request_fields)
    else:
        if isinstance(request, dict):
            request = SearchRequest.from_dict(request)
        if request_fields:
            request = request.replace(**request_fields)
    faults.install_from_env()  # no-op unless REPRO_FAULT_* is set (drills)
    engine = engine or default_engine()
    stats_before = engine.stats.snapshot()  # report per-run deltas, not lifetime totals
    context = build_context(
        request,
        scenarios=scenarios,
        search_space=search_space,
        accuracy_model=accuracy_model,
        predictor=predictor,
        engine=engine,
        progress_callback=progress_callback,
    )
    health = HealthLog()
    context.health = health
    context.strict_objectives = bool(strict_objectives)
    context.objective_retries = int(objective_retries)
    context.retry_backoff_s = float(retry_backoff_s)
    recorder = None
    if checkpoint_dir is not None:
        fingerprint = context.request.fingerprint()
        cell_dir = SearchCheckpoint.cell_dir(checkpoint_dir, fingerprint)
        health.attach(cell_dir / HEALTH_LOG_FILENAME)
        resume_from = SearchCheckpoint.load(cell_dir, health=health) if resume else None
        if resume_from is not None and resume_from.records:
            # Resume is replay: warming the engine caches with the recorded
            # candidate sequence turns every recorded evaluation of the
            # re-run into a cache hit, so the strategy regenerates the
            # identical search at cache speed.  The replay must reproduce
            # the original run's evaluation *grouping* (init batch vs
            # per-step evaluations): costing pools of different
            # composition agree only to float roundoff, so warming with a
            # different grouping would seed the cache with last-ulp
            # different values and break bitwise parity.  Records past the
            # last complete group boundary are simply re-evaluated live.
            genotypes = resume_from.genotypes()
            replayed = 0
            for size in _replay_group_sizes(context.request, len(genotypes)):
                context.evaluator.evaluate_pool(
                    [
                        np.asarray(g, dtype=int)
                        for g in genotypes[replayed : replayed + size]
                    ]
                )
                replayed += size
            if replayed:
                health.record(
                    "H_RESUMED",
                    f"replayed {replayed} of {resume_from.num_evaluations} "
                    f"recorded evaluation(s) through the engine cache",
                    replayed=replayed,
                )
        recorder = CheckpointRecorder(
            cell_dir,
            fingerprint=fingerprint,
            objectives_fn=lambda ev: [ev.metric(m) for m in OBJECTIVES],
            every=checkpoint_every,
            health=health,
            resume_from=resume_from,
        )
        context.recorder = recorder
    user_callback = context.progress_callback
    if recorder is not None or user_callback is not None or faults.active() is not None:

        def _on_progress(index: int, evaluation: CandidateEvaluation) -> None:
            if recorder is not None:
                recorder.on_evaluation(index, evaluation)
            if user_callback is not None:
                user_callback(index, evaluation)
            injector = faults.active()
            if injector is not None:
                injector.on_evaluation_complete(index)

        context.progress_callback = _on_progress
    start = time.perf_counter()
    result, _raw = execute_strategy(context)
    elapsed = time.perf_counter() - start
    if recorder is not None:
        recorder.finalize()
    # the context's request records any space folded in by build_context
    return SearchOutcome(
        request=context.request,
        scenario=context.scenario,
        label=result.label,
        candidates=tuple(result),
        wall_time_s=elapsed,
        engine_stats=engine.stats.since(stats_before),
        front_history=_front_history_of(list(result)),
        health=health.counters(),
    )
