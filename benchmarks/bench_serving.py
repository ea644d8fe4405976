"""Fleet serving hot path: per-client scalar loops vs the vectorized layer.

The paper's runtime adaptation (§IV-E, §V-C) switches one device between
deployment options in O(1) as its uplink drifts.  Served to a fleet, the
seed semantics would run one :class:`~repro.wireless.tracker.ThroughputTracker`
plus one :class:`~repro.core.runtime.DynamicDeploymentController` per client
— a Python loop over every client on every tick.  The serving layer
(:mod:`repro.serving`) advances the whole fleet per tick with array ops:
one EWMA update (:class:`~repro.serving.fleet.FleetTracker`) and one
decision over the option costs, the first option whose cost is strictly
lowest (:func:`~repro.core.runtime.first_minimum`, taken by
:class:`~repro.serving.fleet.FleetController`).

This benchmark replays the same synthetic multi-region workload (including
stalled clients) both ways and asserts:

* **parity, on every run** — bitwise-identical EWMA estimates, identical
  decisions on every ``(tick, client)`` and identical switch totals (the
  correctness gate the CI smoke job enforces);
* **speedup, full runs only** — the vectorized layer must beat the scalar
  loop by >= 5x at 10k clients (``REPRO_BENCH_FAST=0``).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import FAST_MODE, SEED, save_table

from repro.analysis.runtime_eval import select_runtime_options
from repro.core.runtime import DynamicDeploymentController, ThresholdAnalysis
from repro.serving import FleetController, FleetTracker, FleetWorkload
from repro.wireless.channel import WirelessChannel
from repro.wireless.tracker import ThroughputTracker

#: Fleet size: the 10k-client serving scale the acceptance criteria name.
NUM_CLIENTS = 512 if FAST_MODE else 10_000

#: Replay length in ticks.
TICKS = 20 if FAST_MODE else 40

#: EWMA smoothing (non-memoryless, so estimate arithmetic is exercised).
SMOOTHING = 0.6

#: Fraction of client-ticks blanked to NaN (stalled clients -> held decisions).
STALL_PROBABILITY = 0.03

#: Maximum allowed vectorized-vs-scalar divergence, asserted on every run.
PARITY_TOLERANCE = 1e-9

#: Timing floor for the full-size run (scalar seconds / vectorized seconds).
SPEEDUP_FLOOR = 5.0

#: Timed repetitions per path; the best run is scored (noise robustness).
REPEATS = 3


def _build_analysis(search_space, predictor, metric="energy"):
    """A served model's threshold analysis: best split + All-Edge/All-Cloud."""
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.01)
    rng = np.random.default_rng(SEED)
    architecture = search_space.decode_for_performance(search_space.sample(rng))
    options = select_runtime_options(
        architecture, predictor, channel, metric,
        include_all_cloud=True, include_all_edge=True,
    )
    return ThresholdAnalysis(
        options=options,
        power_model=channel.power_model,
        round_trip_s=channel.round_trip_s,
        metric=metric,
    )


def _build_workload(analysis):
    """A multi-region fleet replay rescaled to straddle the model's threshold.

    Whatever model the predictor seed produces, centring the fleet's median
    throughput on the switching threshold guarantees the replay crosses it —
    otherwise switch-parity would be vacuously true.
    """
    workload = FleetWorkload.synthesize(
        NUM_CLIENTS, TICKS,
        stall_probability=STALL_PROBABILITY,
        seed=SEED,
        name="bench-fleet",
    )
    crossings = [t for t in analysis.thresholds().values() if t]
    if crossings:
        scale = max(crossings) / float(np.nanmedian(workload.uplinks_mbps))
        workload = FleetWorkload(
            workload.uplinks_mbps * scale, workload.regions, workload.name
        )
    return workload


def _scalar_replay(analysis, workload):
    """The seed path: one tracker + controller per client, looped per tick.

    NaN measurements (stalled clients) hold the previous decision, exactly
    as the serving layer does.  ``history_limit=0`` keeps the per-client
    trackers O(1) so the 10k-client replay measures compute, not memory.
    """
    uplinks = workload.uplinks_mbps
    ticks, num_clients = uplinks.shape
    index_of = {id(m): i for i, m in enumerate(analysis.options)}
    controllers = [
        DynamicDeploymentController(
            analysis,
            tracker=ThroughputTracker(smoothing=SMOOTHING, history_limit=0),
        )
        for _ in range(num_clients)
    ]
    decisions = np.full((ticks, num_clients), -1, dtype=np.intp)
    last = [-1] * num_clients
    start = time.perf_counter()
    for tick in range(ticks):
        row = uplinks[tick]
        for client in range(num_clients):
            value = row[client]
            if value != value:  # NaN: no sample this tick -> hold
                decisions[tick, client] = last[client]
                continue
            best = controllers[client].observe_and_select(float(value))
            last[client] = index_of[id(best)]
            decisions[tick, client] = last[client]
    elapsed = time.perf_counter() - start
    estimates = np.array(
        [
            np.nan
            if controller.tracker.estimate_mbps is None
            else controller.tracker.estimate_mbps
            for controller in controllers
        ],
        dtype=np.float64,
    )
    switches = sum(controller.num_switches for controller in controllers)
    return elapsed, estimates, decisions, switches


def _vector_replay(analysis, workload):
    """The serving layer: whole-fleet array ops per tick."""
    uplinks = workload.uplinks_mbps
    ticks, num_clients = uplinks.shape
    tracker = FleetTracker(num_clients, smoothing=SMOOTHING)
    controller = FleetController(analysis, num_clients)
    decisions = np.empty((ticks, num_clients), dtype=np.intp)
    start = time.perf_counter()
    for tick in range(ticks):
        estimates = tracker.observe(uplinks[tick])
        decisions[tick] = controller.decide(estimates)
    elapsed = time.perf_counter() - start
    return elapsed, tracker.estimates_mbps, decisions, controller.num_switches


def _best_of(replay, analysis, workload, repeats=REPEATS):
    """Best wall time over ``repeats`` identical deterministic runs."""
    best = float("inf")
    outputs = None
    for _ in range(repeats):
        elapsed, *rest = replay(analysis, workload)
        if elapsed < best:
            best = elapsed
        outputs = rest
    return (best, *outputs)


def test_fleet_serving_speedup_and_parity(search_space, trained_gpu_predictor):
    """Vectorized serving must match the scalar path and (full runs) beat it 5x."""
    analysis = _build_analysis(search_space, trained_gpu_predictor)
    workload = _build_workload(analysis)

    # Warm-up (fair allocator/BLAS state for both paths).
    small = FleetWorkload.synthesize(8, 3, seed=SEED)
    _vector_replay(analysis, small)
    _scalar_replay(analysis, small)

    scalar_s, scalar_estimates, scalar_decisions, scalar_switches = _best_of(
        _scalar_replay, analysis, workload
    )
    vector_s, vector_estimates, vector_decisions, vector_switches = _best_of(
        _vector_replay, analysis, workload
    )

    both = ~np.isnan(scalar_estimates) & ~np.isnan(vector_estimates)
    nan_agree = bool(
        np.array_equal(np.isnan(scalar_estimates), np.isnan(vector_estimates))
    )
    estimate_divergence = (
        float(np.abs(scalar_estimates[both] - vector_estimates[both]).max())
        if both.any()
        else 0.0
    )
    decision_mismatches = int((scalar_decisions != vector_decisions).sum())
    num_decisions = scalar_decisions.size
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")

    from repro.utils.serialization import format_table

    text = (
        "Fleet serving hot path — per-client scalar loop vs vectorized layer\n"
        f"({NUM_CLIENTS} clients x {TICKS} ticks, smoothing {SMOOTHING}, "
        f"{'fast' if FAST_MODE else 'full'} mode)\n"
        + format_table(
            [
                [
                    NUM_CLIENTS,
                    TICKS,
                    round(scalar_s * 1e3, 1),
                    round(vector_s * 1e3, 1),
                    round(num_decisions / vector_s / 1e6, 2) if vector_s else 0,
                    round(speedup, 1),
                    f"{estimate_divergence:.1e}",
                    decision_mismatches,
                    scalar_switches,
                ]
            ],
            [
                "clients",
                "ticks",
                "scalar ms",
                "vector ms",
                "Mdec/s",
                "speedup",
                "estimate parity",
                "decision mismatches",
                "switches",
            ],
        )
    )
    print("\n" + text)
    save_table(
        "serving",
        text,
        {
            "num_clients": NUM_CLIENTS,
            "ticks": TICKS,
            "smoothing": SMOOTHING,
            "stall_probability": STALL_PROBABILITY,
            "fast_mode": FAST_MODE,
            "parity_tolerance": PARITY_TOLERANCE,
            "scalar_s": scalar_s,
            "vector_s": vector_s,
            "decisions_per_s": num_decisions / vector_s if vector_s else 0.0,
            "speedup": speedup,
            "estimate_divergence": estimate_divergence,
            "decision_mismatches": decision_mismatches,
            "switches_scalar": scalar_switches,
            "switches_vector": vector_switches,
            "speedup_floor": None if FAST_MODE else SPEEDUP_FLOOR,
        },
    )
    # Assertions come *after* save_table so a failing run still records its
    # timings/divergence (the CI job uploads them as an artifact).
    assert nan_agree, "scalar and vectorized trackers disagree on idle clients"
    assert estimate_divergence <= PARITY_TOLERANCE, (
        "vectorized EWMA estimates diverged from the scalar trackers: "
        f"{estimate_divergence:.3e} > {PARITY_TOLERANCE:.0e}"
    )
    assert decision_mismatches == 0, (
        f"{decision_mismatches}/{num_decisions} fleet decisions differ "
        "from the per-client scalar controllers"
    )
    assert vector_switches == scalar_switches
    if any(analysis.thresholds().values()):
        assert scalar_switches > 0, (
            "the replay never crossed the switching threshold — "
            "switch parity was not exercised"
        )
    if not FAST_MODE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"fleet serving should be >= {SPEEDUP_FLOOR:.0f}x faster "
            f"vectorized at {NUM_CLIENTS} clients, measured {speedup:.1f}x"
        )


def test_decision_methods_agree_at_exact_thresholds(
    search_space, trained_gpu_predictor
):
    """Fleet decisions, the costs argmin and the scalar choice agree *at* every threshold."""
    analysis = _build_analysis(search_space, trained_gpu_predictor)
    thresholds = sorted(
        {t for t in analysis.thresholds().values() if t and t > 0.0}
    )
    if not thresholds:
        return  # no crossovers in range: nothing to probe
    probes = np.array(
        [t * f for t in thresholds for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12)]
    )
    scalar = [
        analysis.options.index(analysis.best_option(float(p))) for p in probes
    ]
    fleet = FleetController(analysis, probes.size)
    assert fleet.decide(probes).tolist() == scalar, "fleet decisions broke tie parity"
    argmin = np.argmin(analysis.costs(probes), axis=0)
    assert argmin.tolist() == scalar, "the costs argmin broke tie parity"
