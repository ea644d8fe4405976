"""Generic multi-objective Bayesian optimization loop (paper Algorithm 2).

The optimizer is agnostic to what a "candidate" is: the LENS search plugs in
architecture genotypes, but the same loop drives the ablation studies and the
unit tests (which use synthetic objective functions).  The loop follows the
paper's Algorithm 2:

1. evaluate ``num_initial`` random candidates (lines 2-6);
2. each iteration, condition one Gaussian-process surrogate per objective on
   all evaluations so far, score a sampled candidate pool with the chosen
   acquisition strategy, scalarise the per-objective scores with random
   Chebyshev weights, and evaluate the best-scoring unseen candidate
   (lines 7-13);
3. maintain the Pareto archive of all evaluations (line 14).

The surrogates live in a persistent shared-Cholesky
:class:`~repro.optim.gp_bank.GPBank`: each new evaluation is absorbed with a
rank-1 Cholesky append and the per-iteration objective re-normalisation only
recomputes the ``alpha`` vectors, so the surrogate phase costs O(n^2) per
iteration instead of the O(k n^3) of refitting every model from scratch (see
``benchmarks/bench_gp_hotpath.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.optim.acquisition import ACQUISITION_STRATEGIES, acquisition_scores
from repro.optim.epdc import select_batch
from repro.optim.gp_bank import GPBank
from repro.optim.pareto import ParetoArchive, pareto_front_mask
from repro.optim.scalarization import (
    chebyshev_scalarize,
    normalize_objectives,
    random_weights,
)
from repro.resilience import faults
from repro.resilience.health import HealthLog
from repro.utils.rng import SeedLike, ensure_rng

#: Callable turning a candidate into its GP feature vector.
FeatureFn = Callable[[Any], np.ndarray]
#: Callable sampling a random candidate.
SampleFn = Callable[[np.random.Generator], Any]
#: Callable evaluating a candidate pool; returns one output per candidate,
#: each objectives or (objectives, metadata).
BatchObjectiveFn = Callable[[Sequence[Any]], Sequence[Any]]
#: Optional callable proposing neighbours of a candidate.
NeighborFn = Callable[[Any, int, np.random.Generator], Sequence[Any]]
#: Optional per-evaluation callback.
CallbackFn = Callable[[int, "ObservedPoint", ParetoArchive], None]

#: Noise variance of the per-objective GP surrogates.
GP_NOISE_VARIANCE = 1e-4


@dataclass
class ObservedPoint:
    """One evaluated candidate with its objectives and bookkeeping metadata."""

    candidate: Any
    features: np.ndarray
    objectives: np.ndarray
    iteration: int
    phase: str
    metadata: Dict = field(default_factory=dict)


class OptimizationResult:
    """All evaluations of one optimization run plus its Pareto mask."""

    def __init__(self, points: Sequence[ObservedPoint], num_objectives: int):
        self.points: Tuple[ObservedPoint, ...] = tuple(points)
        self.num_objectives = int(num_objectives)

    def __len__(self) -> int:
        return len(self.points)

    def objective_matrix(self) -> np.ndarray:
        """``(n, k)`` matrix of all observed objective vectors."""
        if not self.points:
            return np.empty((0, self.num_objectives))
        return np.vstack([p.objectives for p in self.points])

    def pareto_mask(self) -> np.ndarray:
        """Boolean mask of non-dominated observations."""
        if not self.points:
            return np.zeros(0, dtype=bool)
        return pareto_front_mask(self.objective_matrix())

    def pareto_objectives(self) -> np.ndarray:
        """Objective matrix restricted to the Pareto front."""
        matrix = self.objective_matrix()
        if matrix.size == 0:
            return matrix
        return matrix[self.pareto_mask()]


def _normalize_objective_output(output: Any) -> Tuple[np.ndarray, Dict]:
    """Accept ``objectives`` or ``(objectives, metadata)`` from objective functions.

    Shape coercion only — finite-ness is policed by the caller
    (:meth:`MultiObjectiveBayesianOptimizer._record`), which quarantines
    non-finite vectors.
    """
    metadata: Dict = {}
    if isinstance(output, tuple) and len(output) == 2 and isinstance(output[1], dict):
        objectives, metadata = output
    else:
        objectives = output
    objectives = np.asarray(objectives, dtype=float).ravel()
    return objectives, metadata


def _candidate_key(candidate: Any) -> bytes:
    """Hashable key under which a candidate counts as already seen."""
    if isinstance(candidate, np.ndarray):
        return candidate.tobytes()
    return repr(candidate).encode()


class MultiObjectiveBayesianOptimizer:
    """MOBO over a discrete candidate space defined by sampling callables.

    Parameters
    ----------
    sample_fn:
        ``sample_fn(rng) -> candidate`` — draws a random valid candidate.
    feature_fn:
        ``feature_fn(candidate) -> 1-D array`` — unit-cube features for the GPs.
    batch_objective_fn:
        ``batch_objective_fn(candidates) -> outputs`` evaluating a whole
        candidate pool at once: one output per candidate, in order, each
        ``objectives`` (all minimised) or ``(objectives, metadata)``.  The
        random-initialisation pool and each iteration's selected candidates
        are costed through it — e.g.
        :meth:`repro.core.evaluation.PartitionAwareEvaluator.evaluate_pool`,
        which batches the per-layer predictors and the partition costing
        across the pool.  A per-candidate objective ``f`` plugs in as
        ``lambda candidates: [f(c) for c in candidates]``.
    num_objectives:
        Number of objectives per candidate.
    num_initial / num_iterations:
        Random-initialisation budget and Bayesian-optimization budget
        (``C_init`` and ``N_iter`` in Algorithm 2).
    candidate_pool_size:
        Size of the pool over which the acquisition is maximised each
        iteration.
    acquisition:
        ``"ts"`` (Thompson sampling, default), ``"ucb"``, ``"mean"``,
        ``"random"`` or ``"epdc"`` (front-aware Expected Pareto Distance
        Change, see :mod:`repro.optim.epdc`).
    batch_size:
        Candidates proposed (and evaluated) per BO iteration.  ``1`` (the
        default) reproduces the classic one-point loop bit-for-bit; with
        ``q > 1`` each iteration greedily selects ``q`` diverse candidates
        from the scored pool (:func:`repro.optim.epdc.select_batch`) and
        costs them in one ``batch_objective_fn`` call, so the PR 5 batched
        evaluator runs at full width during search.  The total BO budget
        stays ``num_iterations`` *evaluations* either way (the last batch
        shrinks to fit).
    optimize_lengthscale_every:
        Period (in iterations) of the marginal-likelihood refresh of the
        surrogates' lengthscale; 0 disables it.  The surrogates use a
        Matérn-5/2 kernel whose lengthscale starts at ``0.5 * sqrt(d)`` for
        ``d`` features, which keeps points at typical unit-cube distances
        meaningfully correlated even for high-dimensional genotypes.
    neighbor_fn:
        Optional ``neighbor_fn(candidate, count, rng) -> candidates`` used to
        add neighbours of current Pareto-optimal candidates to the pool
        (local exploitation).
    seed:
        Seed or generator for all stochastic components.
    callback:
        Optional ``callback(evaluation_index, point, archive)`` invoked after
        every evaluation.
    health:
        The :class:`~repro.resilience.health.HealthLog` receiving the
        degradation-ladder events of this run (shared with the surrogate
        bank); a fresh log when none is given.

    An evaluation returning non-finite (or empty) objectives is
    *quarantined*: recorded in :attr:`quarantined` and as an
    ``H_OBJECTIVE_QUARANTINED`` health event, but kept out of the Pareto
    archive and the surrogates, and the search continues.  The pool
    objective is called once per pool; an exception it raises propagates.
    """

    def __init__(
        self,
        sample_fn: SampleFn,
        feature_fn: FeatureFn,
        *,
        batch_objective_fn: BatchObjectiveFn,
        num_objectives: int,
        num_initial: int = 10,
        num_iterations: int = 50,
        candidate_pool_size: int = 128,
        acquisition: str = "ts",
        batch_size: int = 1,
        optimize_lengthscale_every: int = 0,
        neighbor_fn: Optional[NeighborFn] = None,
        seed: SeedLike = None,
        callback: Optional[CallbackFn] = None,
        health: Optional[HealthLog] = None,
    ):
        if num_objectives < 1:
            raise ValueError(f"num_objectives must be >= 1, got {num_objectives}")
        if num_initial < 2:
            raise ValueError(f"num_initial must be >= 2, got {num_initial}")
        if num_iterations < 0:
            raise ValueError(f"num_iterations must be >= 0, got {num_iterations}")
        if candidate_pool_size < 2:
            raise ValueError(
                f"candidate_pool_size must be >= 2, got {candidate_pool_size}"
            )
        if acquisition not in ACQUISITION_STRATEGIES:
            raise ValueError(
                f"acquisition must be one of {ACQUISITION_STRATEGIES}, got {acquisition!r}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.sample_fn = sample_fn
        self.feature_fn = feature_fn
        self.batch_objective_fn = batch_objective_fn
        self.num_objectives = int(num_objectives)
        self.num_initial = int(num_initial)
        self.num_iterations = int(num_iterations)
        self.candidate_pool_size = int(candidate_pool_size)
        self.acquisition = acquisition
        self.batch_size = int(batch_size)
        self.optimize_lengthscale_every = int(optimize_lengthscale_every)
        self.neighbor_fn = neighbor_fn
        self.callback = callback
        self.health = health or HealthLog()
        self._rng = ensure_rng(seed)

        self._points: List[ObservedPoint] = []
        #: Evaluations with non-finite objectives, kept out of the archive
        #: and the surrogates (see the class docs).
        self.quarantined: List[ObservedPoint] = []
        self._evaluation_count = 0
        self._seen: set = set()
        self.archive = ParetoArchive(self.num_objectives)
        # Growing feature/objective matrices (capacity-doubling) so surrogate
        # fits never re-vstack the whole history, plus the persistent
        # shared-Cholesky model bank behind the incremental fast path.
        self._feature_buf: Optional[np.ndarray] = None
        self._objective_buf: Optional[np.ndarray] = None
        self._num_rows: int = 0
        self._bank: Optional[GPBank] = None

    # ------------------------------------------------------------------ evaluation
    def _record(
        self, candidate: Any, output: Any, iteration: int, phase: str
    ) -> ObservedPoint:
        """Book-keep one evaluated candidate."""
        objectives, metadata = _normalize_objective_output(output)
        ordinal = self._evaluation_count
        self._evaluation_count += 1
        injector = faults.active()
        if injector is not None and injector.take_nan_objectives(ordinal):
            objectives = np.full(max(objectives.size, 1), np.nan)
        if objectives.size == 0 or not np.all(np.isfinite(objectives)):
            return self._quarantine(candidate, objectives, metadata, iteration, phase)
        if objectives.shape != (self.num_objectives,):
            raise ValueError(
                f"objective function returned {objectives.shape[0]} objectives, "
                f"expected {self.num_objectives}"
            )
        features = np.asarray(self.feature_fn(candidate), dtype=float).ravel()
        point = ObservedPoint(
            candidate=candidate,
            features=features,
            objectives=objectives,
            iteration=iteration,
            phase=phase,
            metadata=metadata,
        )
        self._points.append(point)
        self._append_row(features, objectives)
        self._seen.add(_candidate_key(candidate))
        self.archive.add(point, objectives)
        if self.callback is not None:
            self.callback(len(self._points) - 1, point, self.archive)
        return point

    def _quarantine(
        self,
        candidate: Any,
        objectives: np.ndarray,
        metadata: Dict,
        iteration: int,
        phase: str,
    ) -> ObservedPoint:
        """Record a non-finite evaluation without poisoning archive or GPs.

        The candidate still counts against the budget and is marked seen
        (re-evaluating it would fail the same way), but its objectives
        enter neither the Pareto archive nor the surrogate matrices, so
        pareto masks and kernel factors stay NaN-free.  No per-evaluation
        callback fires: quarantined points are not replayable outcomes.
        """
        features = np.asarray(self.feature_fn(candidate), dtype=float).ravel()
        point = ObservedPoint(
            candidate=candidate,
            features=features,
            objectives=np.asarray(objectives, dtype=float),
            iteration=iteration,
            phase=phase,
            metadata={**metadata, "quarantined": True},
        )
        self.quarantined.append(point)
        self._seen.add(_candidate_key(candidate))
        self.health.record(
            "H_OBJECTIVE_QUARANTINED",
            f"evaluation {iteration} ({phase}) returned non-finite objectives",
            iteration=iteration,
            phase=phase,
        )
        return point

    def _evaluate_batch(
        self, candidates: Sequence[Any], first_iteration: int, phase: str
    ) -> List[ObservedPoint]:
        """Evaluate a pool through ``batch_objective_fn``, book-keeping in order."""
        outputs = self.batch_objective_fn(candidates)
        if len(outputs) != len(candidates):
            raise ValueError(
                f"batch objective function returned {len(outputs)} outputs "
                f"for {len(candidates)} candidates"
            )
        return [
            self._record(candidate, output, first_iteration + offset, phase)
            for offset, (candidate, output) in enumerate(zip(candidates, outputs))
        ]

    def _append_row(self, features: np.ndarray, objectives: np.ndarray) -> None:
        """Append one evaluation to the growing feature/objective matrices."""
        if self._feature_buf is None:
            capacity = max(16, self.num_initial + self.num_iterations)
            self._feature_buf = np.zeros((capacity, features.shape[0]))
            self._objective_buf = np.zeros((capacity, self.num_objectives))
        elif self._num_rows == self._feature_buf.shape[0]:
            self._feature_buf = np.vstack([self._feature_buf, np.zeros_like(self._feature_buf)])
            self._objective_buf = np.vstack([self._objective_buf, np.zeros_like(self._objective_buf)])
        if features.shape[0] != self._feature_buf.shape[1]:
            raise ValueError(
                f"feature function returned {features.shape[0]} features, "
                f"expected {self._feature_buf.shape[1]}"
            )
        self._feature_buf[self._num_rows] = features
        self._objective_buf[self._num_rows] = objectives
        self._num_rows += 1

    def _feature_matrix(self) -> np.ndarray:
        """View of all observed feature vectors, ``(n, d)``."""
        return self._feature_buf[: self._num_rows]

    def _objective_matrix(self) -> np.ndarray:
        """View of all observed objective vectors, ``(n, k)``."""
        return self._objective_buf[: self._num_rows]

    def _sample_unseen(
        self, max_attempts: int = 50, pending: Optional[set] = None
    ) -> Any:
        """Sample a candidate not yet evaluated (nor in ``pending``).

        ``pending`` lets the initial pool be pre-sampled with exactly the
        rejection behaviour of interleaved sample-then-evaluate: sampling
        consumes the generator, evaluation never does, so the draw sequence
        is identical either way.
        """
        for _ in range(max_attempts):
            candidate = self.sample_fn(self._rng)
            key = _candidate_key(candidate)
            if key not in self._seen and (pending is None or key not in pending):
                return candidate
        # The space may be nearly exhausted; accept a duplicate rather than stall.
        self.health.record(
            "H_DUPLICATE_ACCEPTED",
            f"no unseen candidate in {max_attempts} draws; accepting a possible duplicate",
        )
        return self.sample_fn(self._rng)

    # ------------------------------------------------------------------ pool construction
    def _build_pool(self) -> List[Any]:
        pool: List[Any] = []
        keys: set = set()
        target = self.candidate_pool_size
        attempts = 0
        while len(pool) < target and attempts < target * 10:
            candidate = self.sample_fn(self._rng)
            key = _candidate_key(candidate)
            attempts += 1
            if key in self._seen or key in keys:
                continue
            pool.append(candidate)
            keys.add(key)
        if self.neighbor_fn is not None and len(self.archive) > 0:
            per_entry = max(1, target // (4 * max(len(self.archive), 1)))
            for entry in self.archive.entries:
                neighbours = self.neighbor_fn(
                    entry.payload.candidate, per_entry, self._rng
                )
                for candidate in neighbours:
                    key = _candidate_key(candidate)
                    if key in self._seen or key in keys:
                        continue
                    pool.append(candidate)
                    keys.add(key)
        if not pool:
            pool.append(self._sample_unseen())
        return pool

    # ------------------------------------------------------------------ surrogate models
    def _fit_models(self, refresh_lengthscale: bool) -> GPBank:
        """Condition the per-objective surrogate bank on all evaluations so far.

        The bank persists across iterations: new evaluations arrive as rank-1
        Cholesky appends and the per-iteration objective re-normalisation only
        recomputes each model's ``alpha``.
        """
        X = self._feature_matrix()
        Y_norm, _, _ = normalize_objectives(self._objective_matrix())
        if self._bank is None:
            # Typical pairwise distance in the unit cube grows like sqrt(d);
            # scale the lengthscale accordingly so the surrogate carries signal.
            self._bank = GPBank(
                num_objectives=self.num_objectives,
                lengthscale=0.5 * float(np.sqrt(X.shape[1])),
                noise_variance=GP_NOISE_VARIANCE,
                health=self.health,
            )
        self._bank.update(X, Y_norm)
        if refresh_lengthscale:
            self._bank.refresh_lengthscales()
        return self._bank

    # ------------------------------------------------------------------ main loop
    def run(self) -> OptimizationResult:
        """Execute the full optimization and return every observation."""
        # Random initialisation (Algorithm 2, lines 2-6): the whole initial
        # pool is sampled up front (the draw sequence is that of interleaved
        # sample-then-evaluate — evaluation never consumes the generator)
        # and costed in one batched evaluation.
        initial: List[Any] = []
        pending: set = set()
        for _ in range(self.num_initial):
            candidate = self._sample_unseen(pending=pending)
            pending.add(_candidate_key(candidate))
            initial.append(candidate)
        self._evaluate_batch(initial, first_iteration=0, phase="init")

        # MOBO iterations (Algorithm 2, lines 7-14).  The BO budget is
        # num_iterations *evaluations*; each step proposes min(batch_size,
        # remaining) candidates, so batch_size=1 walks the exact per-step
        # RNG/bookkeeping sequence of the classic loop (goldens pinned by
        # tests/test_incremental_regression.py), while q > 1 fills the
        # batched evaluator per step.
        consumed = 0
        step = 0
        while consumed < self.num_iterations:
            refresh = (
                self.optimize_lengthscale_every > 0
                and step % self.optimize_lengthscale_every == 0
            )
            # Final rung of the degradation ladder: if the surrogate stage
            # fails despite jitter escalation, exact refits and the
            # heterogeneous fallback (or quarantine left too few rows to fit
            # on), this iteration's acquisition degrades to random scores —
            # the search keeps spending its budget instead of crashing.
            # The healthy path is byte-identical to the pre-ladder loop: the
            # fallback draw only consumes the generator when a rung fired.
            bank = None
            if self._num_rows > 0:
                try:
                    bank = self._fit_models(refresh_lengthscale=refresh)
                except np.linalg.LinAlgError as error:
                    self._record_random_acquisition("surrogate fit failed", error)
            else:
                self._record_random_acquisition(
                    "no finite evaluations to fit surrogates on", None
                )
            pool = self._build_pool()
            pool_features = np.vstack([self.feature_fn(c) for c in pool])
            scores = None
            if bank is not None:
                front = None
                if self.acquisition == "epdc":
                    # The surrogates are fit on normalised objectives; hand the
                    # front over in the same units so EPDC distances line up
                    # with the posterior samples.
                    Y = self._objective_matrix()
                    Y_norm, _, _ = normalize_objectives(Y)
                    front = Y_norm[pareto_front_mask(Y)]
                try:
                    scores = acquisition_scores(
                        self.acquisition,
                        bank,
                        pool_features,
                        rng=self._rng,
                        front=front,
                    )
                except np.linalg.LinAlgError as error:
                    self._record_random_acquisition("acquisition scoring failed", error)
            if scores is None:
                scores = self._rng.uniform(
                    size=(pool_features.shape[0], self.num_objectives)
                )
            scores_norm, _, _ = normalize_objectives(scores)
            weights = random_weights(self.num_objectives, self._rng)
            scalar = chebyshev_scalarize(scores_norm, weights)
            q = min(self.batch_size, self.num_iterations - consumed)
            if q == 1:
                chosen = [pool[int(np.argmin(scalar))]]
            else:
                indices = select_batch(scalar, pool_features, q)
                chosen = [pool[index] for index in indices]
            self._evaluate_batch(
                chosen, first_iteration=self.num_initial + consumed, phase="bo"
            )
            consumed += len(chosen)
            step += 1

        return OptimizationResult(self._points, self.num_objectives)

    def _record_random_acquisition(self, reason: str, error: Optional[Exception]) -> None:
        detail = f" ({error})" if error is not None else ""
        self.health.record(
            "H_RANDOM_ACQUISITION",
            f"{reason}{detail}; falling back to random candidate selection",
        )
