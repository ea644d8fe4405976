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

A strategy is a callable ``strategy(context) -> SearchResult``;
registering a new one makes it addressable from request envelopes
immediately.

:func:`run_search` is the one way to run a search.  Callers that need the
resolved components (device, channel, predictor, evaluator) use its two
halves, :func:`build_context` and :func:`execute_strategy`, directly.  The
Traditional baseline's post-hoc partitioning of its Pareto set is
:meth:`~repro.core.results.SearchResult.partitioned`, a pure function of
the stored candidates (``outcome.result.partitioned()``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.accuracy.surrogate import AccuracyModel, AccuracySurrogate
from repro.api.engine import EvaluationEngine, default_engine
from repro.api.envelopes import SearchOutcome, SearchRequest
from repro.api.registry import ACQUISITIONS, SEARCH_SPACES, Registry
from repro.api.scenario import Scenario
from repro.core.evaluation import PartitionAwareEvaluator
from repro.core.results import METRIC_NAMES, CandidateEvaluation, SearchResult
from repro.hardware.device import DeviceProfile
from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.spaces import EncodedSearchSpace
from repro.optim.mobo import MultiObjectiveBayesianOptimizer
from repro.optim.pareto import FrontHistory, compute_front_history
from repro.partition.partitioner import PartitionAnalyzer
from repro.resilience import faults
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

    ``health`` is the :class:`~repro.resilience.health.HealthLog` collecting
    the run's degradation events (a fresh one per context).
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
    health: HealthLog = field(default_factory=HealthLog)


def build_context(
    request: Union[SearchRequest, Dict],
    *,
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
    scenario = request.resolve_scenario()
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

def _run_mobo(context: SearchContext, label: str) -> SearchResult:
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
        health=context.health,
    )
    candidates: List[CandidateEvaluation] = []
    for point in optimizer.run().points:
        evaluation: CandidateEvaluation = point.metadata["evaluation"]
        evaluation.iteration = point.iteration
        evaluation.phase = point.phase
        candidates.append(evaluation)
    return SearchResult(candidates, label=label)


def _lens_strategy(context: SearchContext) -> SearchResult:
    """Partition-aware MOBO (paper Algorithm 2)."""
    return _run_mobo(context, label="lens")


def _traditional_strategy(context: SearchContext) -> SearchResult:
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


def _random_strategy(context: SearchContext) -> SearchResult:
    """Uniform-random search with the same budget (sanity baseline).

    The whole budget is sampled up front (sampling alone consumes the
    generator, so the draw sequence matches the old interleaved loop) and
    costed in chunked pool-level evaluations through the engine's batched
    path.  Sampling gives up after ``20 * budget`` draws; a space with
    fewer distinct genotypes than the budget is evaluated once per genotype
    and the shortfall is recorded as ``H_BUDGET_SHORTFALL``.
    """
    request = context.request
    rng = ensure_rng(request.seed)
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
    if len(genotypes) < budget:
        context.health.record(
            "H_BUDGET_SHORTFALL",
            f"found {len(genotypes)} distinct candidate(s) in {attempts} draws "
            f"for a budget of {budget}",
            evaluated=len(genotypes),
            budget=budget,
        )
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
    return SearchResult(candidates, label="random")


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


def execute_strategy(context: SearchContext) -> SearchResult:
    """Run the context's strategy and return its result."""
    strategy = STRATEGIES.get(context.request.strategy)
    return strategy(context)


@blas_threads(SEARCH_BLAS_THREADS)
def run_search(
    request: Union[SearchRequest, Dict, None] = None,
    *,
    search_space: Union[EncodedSearchSpace, str, None] = None,
    accuracy_model: Optional[AccuracyModel] = None,
    predictor: Optional[BaseLayerPredictor] = None,
    engine: Optional[EvaluationEngine] = None,
    progress_callback: Optional[ProgressCallback] = None,
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

    A run is a pure function of its request, so a search killed mid-run is
    recovered by calling ``run_search`` with the same request again: on a
    fresh engine the re-run's outcome equals an uninterrupted one (see
    ``docs/robustness.md``).

    The whole run — predictor training, the strategy and the front
    history — executes with every loaded OpenBLAS set to
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
        search_space=search_space,
        accuracy_model=accuracy_model,
        predictor=predictor,
        engine=engine,
        progress_callback=progress_callback,
    )
    user_callback = context.progress_callback
    if user_callback is not None or faults.active() is not None:

        def _on_progress(index: int, evaluation: CandidateEvaluation) -> None:
            if user_callback is not None:
                user_callback(index, evaluation)
            injector = faults.active()
            if injector is not None:
                injector.on_evaluation_complete(index)

        context.progress_callback = _on_progress
    start = time.perf_counter()
    result = execute_strategy(context)
    elapsed = time.perf_counter() - start
    # the context's request records any space folded in by build_context
    return SearchOutcome(
        request=context.request,
        scenario=context.scenario,
        label=result.label,
        candidates=tuple(result),
        wall_time_s=elapsed,
        engine_stats=engine.stats.since(stats_before),
        front_history=_front_history_of(list(result)),
        health=context.health.counters(),
    )
