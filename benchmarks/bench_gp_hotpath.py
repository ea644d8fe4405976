"""GP surrogate hot path: cold per-model refits vs the incremental bank.

The MOBO loop (paper Algorithm 2) conditions one GP per objective on all
evaluations after *every* evaluation.  Before the incremental engine this
meant k fresh O(n^3) Cholesky factorisations per iteration — O(k N^4) over an
N-evaluation search.  The :class:`~repro.optim.gp_bank.GPBank` replaces that
with one shared rank-1 Cholesky append plus batched O(n^2) retargets.

This benchmark replays the surrogate phase of a search (the per-iteration
``normalize -> condition`` loop, exactly what
``MultiObjectiveBayesianOptimizer._fit_models`` does) three ways:

* ``legacy-cold`` — the pre-bank behaviour: k separate ``GaussianProcess.fit``
  calls per iteration;
* ``bank-cold`` — a cold ``GPBank.fit`` every iteration (shared
  factorisation, still from scratch; the bank's ``H_EXACT_REFIT`` fallback);
* ``incremental`` — the bank's rank-1 ``GPBank.update`` (what searches run).

It asserts posterior-parity between the incremental and cold paths (<= 1e-6,
the correctness gate — this is what the CI smoke job enforces) and records
timings/speedups as JSON.  Timing floors are only asserted on full-size runs
(``REPRO_BENCH_FAST=0``): the paper-scale 300-evaluation search must show a
>= 5x surrogate-phase speedup over the legacy cold path.

A second test smokes the vectorised ``pareto_front_mask`` on a 50k-point
cloud and cross-checks it against the O(n^2) loop of
``tests/oracles/pareto.py``.  A third replays a paper-budget (10 + 300)
evaluation sequence through the incremental ``compute_front_history`` and
its per-prefix oracle (``tests/oracles/front_history.py``, whose
hypervolume is the slab-by-slab ``tests/oracles/hypervolume.py``), asserts
the two histories are equal bit for bit, and records their timings and those of the staircase
``hypervolume_3d`` and the slab oracle on the final front; it never fails
on timing.
"""

from __future__ import annotations

import json
import time
import timeit

import numpy as np
from conftest import FAST_MODE, save_table
from oracles import front_history as front_history_oracle
from oracles import hypervolume as hypervolume_oracle
from oracles import pareto as pareto_oracle

from repro.optim.gp import GaussianProcess
from repro.optim.gp_bank import GPBank
from repro.optim.pareto import (
    compute_front_history,
    hypervolume_3d,
    pareto_front_mask,
)
from repro.optim.scalarization import normalize_objectives

#: Final evaluation counts replayed by the surrogate-phase benchmark.
SIZES = (30, 60) if FAST_MODE else (50, 200, 500)

#: The paper-scale search whose surrogate phase must speed up >= 5x.
SEARCH_EVALUATIONS = 300

#: Feature dimensionality (the lens-vgg genotype projects to 24 features).
FEATURE_DIM = 24

#: Objectives per evaluation (error, latency, energy).
NUM_OBJECTIVES = 3

#: Random-initialisation prefix before the per-iteration conditioning starts.
NUM_INITIAL = 10

#: Maximum allowed posterior mean/std divergence between the paths.
PARITY_TOLERANCE = 1e-6

#: Pareto smoke-cloud size (and the cross-check subsample size).
PARETO_POINTS = 5_000 if FAST_MODE else 50_000
PARETO_CHECK_POINTS = 2_000

#: Iterations each timing of one idle fault consult runs.
CONSULT_ITERATIONS = 200_000

#: Evaluations in the front-history smoke: a paper-budget search's sequence.
FRONT_HISTORY_EVALUATIONS = NUM_INITIAL + SEARCH_EVALUATIONS

_LENGTHSCALE = 0.5 * float(np.sqrt(FEATURE_DIM))


def _surrogate_stream(total: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(total, FEATURE_DIM))
    Y = rng.uniform(size=(total, NUM_OBJECTIVES))
    probe = rng.uniform(size=(64, FEATURE_DIM))
    return X, Y, probe


def _replay_bank(X: np.ndarray, Y: np.ndarray, cold: bool = False, health=None) -> tuple:
    """Replay the per-iteration conditioning with a GPBank; returns (seconds, bank).

    Each step conditions on the whole prefix with ``GPBank.update`` (the
    incremental path) or, with ``cold=True``, refits it with ``GPBank.fit``.
    """
    bank = GPBank(NUM_OBJECTIVES, lengthscale=_LENGTHSCALE, health=health)
    condition = bank.fit if cold else bank.update
    elapsed = 0.0
    for n in range(NUM_INITIAL, X.shape[0] + 1):
        Y_norm, _, _ = normalize_objectives(Y[:n])
        start = time.perf_counter()
        condition(X[:n], Y_norm)
        elapsed += time.perf_counter() - start
    return elapsed, bank


def _replay_legacy(X: np.ndarray, Y: np.ndarray) -> tuple:
    """The seed behaviour: k fresh per-model fits every iteration."""
    models = []
    elapsed = 0.0
    for n in range(NUM_INITIAL, X.shape[0] + 1):
        Y_norm, _, _ = normalize_objectives(Y[:n])
        start = time.perf_counter()
        models = [
            GaussianProcess(lengthscale=_LENGTHSCALE).fit(X[:n], Y_norm[:, k])
            for k in range(NUM_OBJECTIVES)
        ]
        elapsed += time.perf_counter() - start
    return elapsed, models


def _max_posterior_divergence(bank: GPBank, models, probe: np.ndarray) -> float:
    mean_inc, std_inc = bank.predict(probe)
    mean_ref = np.column_stack([m.predict(probe)[0] for m in models])
    std_ref = np.column_stack([m.predict(probe)[1] for m in models])
    return float(
        max(np.max(np.abs(mean_inc - mean_ref)), np.max(np.abs(std_inc - std_ref)))
    )


def test_incremental_surrogate_phase_speedup_and_parity():
    """Incremental conditioning must match cold refits and (full runs) beat them 5x."""
    rows = []
    payload_sizes = []
    sizes = SIZES if FAST_MODE else tuple(SIZES) + (NUM_INITIAL + SEARCH_EVALUATIONS,)
    search_speedup = None
    for total in sizes:
        X, Y, probe = _surrogate_stream(total)
        t_inc, bank = _replay_bank(X, Y)
        t_cold, _ = _replay_bank(X, Y, cold=True)
        t_legacy, models = _replay_legacy(X, Y)
        divergence = _max_posterior_divergence(bank, models, probe)
        speedup_legacy = t_legacy / t_inc if t_inc > 0 else float("inf")
        speedup_cold = t_cold / t_inc if t_inc > 0 else float("inf")
        if total == NUM_INITIAL + SEARCH_EVALUATIONS:
            search_speedup = speedup_legacy
        rows.append(
            [
                total,
                round(t_inc * 1e3, 1),
                round(t_cold * 1e3, 1),
                round(t_legacy * 1e3, 1),
                round(speedup_cold, 1),
                round(speedup_legacy, 1),
                f"{divergence:.1e}",
            ]
        )
        payload_sizes.append(
            {
                "evaluations": total,
                "incremental_s": t_inc,
                "bank_cold_s": t_cold,
                "legacy_cold_s": t_legacy,
                "speedup_vs_bank_cold": speedup_cold,
                "speedup_vs_legacy_cold": speedup_legacy,
                "max_posterior_divergence": divergence,
            }
        )

    from repro.utils.serialization import format_table

    text = (
        "GP surrogate hot path — cold refits vs incremental bank "
        f"(d={FEATURE_DIM}, k={NUM_OBJECTIVES} objectives, "
        f"{'fast' if FAST_MODE else 'full'} mode)\n"
        + format_table(
            rows,
            [
                "evals",
                "incremental ms",
                "bank-cold ms",
                "legacy-cold ms",
                "x vs bank-cold",
                "x vs legacy",
                "parity",
            ],
        )
    )
    print("\n" + text)
    save_table(
        "gp_hotpath",
        text,
        {
            "feature_dim": FEATURE_DIM,
            "num_objectives": NUM_OBJECTIVES,
            "num_initial": NUM_INITIAL,
            "fast_mode": FAST_MODE,
            "parity_tolerance": PARITY_TOLERANCE,
            "sizes": payload_sizes,
            "search300_speedup_vs_legacy": search_speedup,
        },
    )
    # Assertions come *after* save_table so a failing run still records its
    # divergences/timings (the CI job uploads them as an artifact).
    for entry in payload_sizes:
        assert entry["max_posterior_divergence"] <= PARITY_TOLERANCE, (
            "incremental posterior diverged from the exact refit at "
            f"n={entry['evaluations']}: {entry['max_posterior_divergence']:.3e} "
            f"> {PARITY_TOLERANCE:.0e}"
        )
    if not FAST_MODE:
        # Timing floor only on full runs; smoke/CI runs gate on parity alone.
        assert search_speedup is not None and search_speedup >= 5.0, (
            "surrogate phase of a 300-evaluation search should be >= 5x faster "
            f"than the legacy cold-refit path, measured {search_speedup:.1f}x"
        )


def test_health_instrumentation_overhead():
    """A healthy search must pay (almost) nothing for the degradation ladder.

    The resilience consult sites live on the surrogate hot path: each
    ``GPBank.update`` factors through ``escalating_cholesky``, whose every
    factorization asks :func:`repro.resilience.faults.active` for an
    injector and, when one is installed, asks it whether to fail.  The
    overhead of an idle injector is measured as the consults one
    incremental conditioning replay makes, times the cost of one idle
    consult timed on its own over many iterations, against the replay with
    no injector installed ("bare").  Two replays differ by far more than
    2% from one run to the next, so timing a replay with an idle
    ``FaultInjector()`` installed ("instrumented") against a bare one
    cannot resolve the bound; both replay timings are still recorded.  The
    < 2% bound is asserted on full-size runs only (timings in fast/CI mode
    gate on the no-events invariant alone).
    """
    from repro.resilience import faults
    from repro.resilience.health import HealthLog

    total = 60 if FAST_MODE else 200
    repeats = 3 if FAST_MODE else 5
    X, Y, _ = _surrogate_stream(total, seed=3)
    log = HealthLog()

    class CountingInjector(faults.FaultInjector):
        """An idle injector that counts the factorizations consulting it."""

        consults = 0

        def take_linalg_fault(self) -> bool:
            self.consults += 1
            return super().take_linalg_fault()

    # the warm-up replay counts the consults every replay makes
    counter = CountingInjector()
    with faults.inject(counter):
        _replay_bank(X, Y, health=log)
    consults = counter.consults

    # min-of-N replays, alternating which configuration runs first, so
    # neither gets the warm caches or the first slot
    injectors = [("bare", None), ("instrumented", faults.FaultInjector())]
    best = {name: float("inf") for name, _ in injectors}
    for repeat in range(repeats):
        for name, injector in injectors[:: 1 if repeat % 2 == 0 else -1]:
            with faults.inject(injector):
                best[name] = min(best[name], _replay_bank(X, Y, health=log)[0])
    bare_s, instrumented_s = best["bare"], best["instrumented"]

    # one idle consult is the two calls a factorization makes before it
    # factors: faults.active() and the idle injector's take_linalg_fault().
    # A bare replay makes the first too, so this bounds the extra cost from
    # above.
    idle = faults.FaultInjector()
    with faults.inject(idle):
        consult_s = min(
            timeit.timeit(faults.active, number=CONSULT_ITERATIONS)
            + timeit.timeit(idle.take_linalg_fault, number=CONSULT_ITERATIONS)
            for _ in range(repeats)
        ) / CONSULT_ITERATIONS
    overhead = consults * consult_s / bare_s

    text = (
        f"fault-injection consults on the incremental surrogate path "
        f"(n={total}): {consults} consults x {consult_s * 1e9:.0f} ns each "
        f"(best of {repeats} x {CONSULT_ITERATIONS} iterations) against a "
        f"{bare_s * 1e3:.1f} ms bare replay: overhead {overhead * 100:.4f}%; "
        f"replays (best of {repeats}): no injector {bare_s * 1e3:.1f} ms, "
        f"idle injector {instrumented_s * 1e3:.1f} ms"
    )
    print("\n" + text)
    save_table(
        "gp_resilience_overhead",
        text,
        {
            "evaluations": total,
            "repeats": repeats,
            "bare_s": bare_s,
            "instrumented_s": instrumented_s,
            "consults": consults,
            "consult_iterations": CONSULT_ITERATIONS,
            "consult_s": consult_s,
            "overhead_fraction": overhead,
            "health_events": len(log),
            "fast_mode": FAST_MODE,
        },
    )
    # A healthy replay must record no events — the ladder only speaks up
    # when a rung actually fires.
    assert len(log) == 0, f"healthy replay recorded {len(log)} health events"
    assert consults > 0, "the replay factored without consulting the injector"
    if not FAST_MODE:
        assert overhead <= 0.02, (
            "fault-injection consults should cost < 2% on the surrogate hot "
            f"path, measured {overhead * 100:.4f}%"
        )


def test_pareto_front_mask_vectorized_smoke():
    """50k-point Pareto mask: correct against the reference and fast enough to time."""
    rng = np.random.default_rng(7)
    cloud = rng.uniform(size=(PARETO_POINTS, 3))
    # Sprinkle duplicated rows so the duplicate-retention semantics are hit.
    cloud[-100:] = cloud[:100]

    start = time.perf_counter()
    mask = pareto_front_mask(cloud)
    elapsed = time.perf_counter() - start

    front = cloud[mask]
    text = (
        f"pareto_front_mask on {PARETO_POINTS} random 3-objective points: "
        f"{elapsed * 1e3:.1f} ms, front size {front.shape[0]}"
    )
    print("\n" + text)
    save_table(
        "pareto_mask_smoke",
        text,
        {
            "points": PARETO_POINTS,
            "front_size": int(front.shape[0]),
            "elapsed_s": elapsed,
            "fast_mode": FAST_MODE,
        },
    )

    assert front.shape[0] > 0
    # Every front member must be non-dominated within the front itself.
    assert np.all(pareto_oracle.pareto_front_mask(front))
    # Every excluded point must be dominated by some front member.
    excluded = cloud[~mask][:PARETO_CHECK_POINTS]
    dominated = np.array(
        [
            bool(np.any(np.all(front <= p, axis=1) & np.any(front < p, axis=1)))
            for p in excluded
        ]
    )
    assert dominated.all()
    # Exact equivalence with the reference implementation on a subsample.
    sample = cloud[:PARETO_CHECK_POINTS]
    assert np.array_equal(
        pareto_front_mask(sample), pareto_oracle.pareto_front_mask(sample)
    )


def _best_time(function, *args, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timed calls, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_front_history_incremental_smoke():
    """A 310-evaluation front history: equal to the per-prefix oracle, timed."""
    rng = np.random.default_rng(11)
    # Later evaluations tend to be better, as in a search, so the front keeps
    # moving; a few replayed rows exercise duplicates.
    trend = np.linspace(1.0, 0.4, FRONT_HISTORY_EVALUATIONS)[:, None]
    objectives = rng.uniform(size=(FRONT_HISTORY_EVALUATIONS, NUM_OBJECTIVES)) * trend
    objectives[-10:] = objectives[100:110]
    metrics = ("error_percent", "latency_s", "energy_j")

    start = time.perf_counter()
    history = compute_front_history(objectives, metrics)
    incremental_s = time.perf_counter() - start
    start = time.perf_counter()
    expected = front_history_oracle.compute_front_history(objectives, metrics)
    oracle_s = time.perf_counter() - start

    final_front = objectives[pareto_front_mask(objectives)]
    reference = history.reference
    sweep_hv_s = _best_time(hypervolume_3d, final_front, reference)
    slab_hv_s = _best_time(hypervolume_oracle.hypervolume_3d, final_front, reference)

    joins = len(history.front_advances())
    text = (
        f"compute_front_history on {FRONT_HISTORY_EVALUATIONS}x{NUM_OBJECTIVES} "
        f"evaluations ({joins} joined the front, final size "
        f"{history.final_front_size}): incremental {incremental_s * 1e3:.1f} ms, "
        f"per-prefix oracle {oracle_s * 1e3:.1f} ms; hypervolume_3d of the "
        f"final front: staircase sweep {sweep_hv_s * 1e3:.2f} ms, slab oracle "
        f"{slab_hv_s * 1e3:.2f} ms"
    )
    print("\n" + text)
    save_table(
        "front_history_smoke",
        text,
        {
            "evaluations": FRONT_HISTORY_EVALUATIONS,
            "objectives": NUM_OBJECTIVES,
            "joined_front": joins,
            "final_front_size": history.final_front_size,
            "incremental_s": incremental_s,
            "oracle_s": oracle_s,
            "hypervolume_3d_sweep_s": sweep_hv_s,
            "hypervolume_3d_slab_oracle_s": slab_hv_s,
            "fast_mode": FAST_MODE,
        },
    )

    assert json.dumps(history.to_dict()) == json.dumps(expected.to_dict())
