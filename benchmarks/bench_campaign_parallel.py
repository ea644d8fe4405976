"""Campaign fan-out: serial vs parallel execution of one search grid.

Runs the same scenarios x strategies campaign grid serially and across
worker processes into separate run stores, verifies both stores hold the
same fingerprints and report the same per-scenario winners (execution mode
must never change results), and emits the wall-clock comparison as a table.

Speedup depends on grid shape vs core count and on the per-process cost of
retraining predictors (worker processes cannot share the parent's engine
caches), so the timings are reported rather than asserted.
"""

from __future__ import annotations

from conftest import FAST_MODE, save_table

from repro.analysis.reporting import summarize_campaign
from repro.campaign import CampaignPolicy, CampaignSpec, RunStore, run_campaign
from repro.utils.serialization import format_table

SPEC = CampaignSpec(
    scenarios=(
        "wifi-3mbps/jetson-tx2-gpu",
        "lte-3mbps/jetson-tx2-gpu",
        "3g-3mbps/jetson-tx2-cpu",
    ),
    strategies=("lens", "random"),
    seeds=(2021,),
    num_initial=4 if FAST_MODE else 10,
    num_iterations=8 if FAST_MODE else 40,
    candidate_pool_size=16 if FAST_MODE else 64,
    predictor_samples_per_type=40 if FAST_MODE else 200,
)

WORKER_COUNTS = (1, 2, 4)


def _winners(store: RunStore):
    summary = summarize_campaign(store.outcomes())
    return sorted((w.scenario, w.winner) for w in summary.winners)


def test_parallel_campaign_matches_serial(tmp_path):
    """Every worker count produces identical stores; timings are reported."""
    rows = []
    timings = {}
    reference_fingerprints = None
    reference_winners = None
    for workers in WORKER_COUNTS:
        store = RunStore(tmp_path / f"workers-{workers}")
        result = run_campaign(SPEC, store, workers=workers)
        assert len(result.executed) == SPEC.num_cells
        fingerprints = sorted(store.fingerprints())
        winners = _winners(store)
        if reference_fingerprints is None:
            reference_fingerprints, reference_winners = fingerprints, winners
        else:
            assert fingerprints == reference_fingerprints
            assert winners == reference_winners
        timings[workers] = result.wall_time_s
        rows.append([
            workers,
            round(result.wall_time_s, 3),
            round(timings[1] / result.wall_time_s, 2),
        ])

    text = (
        f"Campaign fan-out — {SPEC.num_cells} cells "
        f"({len(SPEC.scenarios)} scenarios x {len(SPEC.strategies)} strategies, "
        f"{SPEC.num_initial}+{SPEC.num_iterations} evaluations per cell)\n"
        + format_table(rows, ["workers", "wall s", "speedup vs serial"])
        + "\nwinners: " + ", ".join(f"{s} -> {w}" for s, w in reference_winners)
    )
    print("\n" + text)
    save_table(
        "campaign_parallel",
        text,
        {
            "spec": SPEC.to_dict(),
            "worker_counts": list(WORKER_COUNTS),
            "wall_time_s": {str(w): t for w, t in timings.items()},
            "winners": [list(pair) for pair in reference_winners],
        },
    )


def test_store_append_throughput_at_5k_records(tmp_path):
    """Append throughput of one store growing to 5k records.

    Every append is one flock'd ``O_APPEND`` write of a CRC'd record into
    its shard.  Timings are reported, not asserted.
    """
    import time as _time

    from repro.api.envelopes import SearchRequest
    from repro.api.session import run_search

    records = 5_000
    outcome = run_search(
        SearchRequest(
            scenario="wifi-3mbps/jetson-tx2-gpu",
            strategy="random",
            num_initial=4,
            num_iterations=2,
            candidate_pool_size=16,
            predictor_samples_per_type=40,
        )
    )
    store = RunStore(tmp_path / "big")
    start = _time.perf_counter()
    for i in range(records):
        store.append(outcome, fingerprint=f"{i:016x}")
    elapsed = _time.perf_counter() - start

    assert len(store) == records
    assert len(RunStore(tmp_path / "big")) == records
    text = (
        f"Store appends at {records} records\n"
        f"appends: {records}, elapsed: {elapsed:.2f}s "
        f"({records / elapsed:,.0f} appends/s)"
    )
    print("\n" + text)
    save_table(
        "campaign_store_append",
        text,
        {
            "records": records,
            "elapsed_s": elapsed,
            "appends_per_s": records / elapsed,
        },
    )


def test_supervisor_overhead_on_healthy_claims(tmp_path):
    """Supervision must be (near) free on the healthy path.

    Every pull-worker claim consults the shared circuit breaker
    (``circuit_allows`` — a lock-free state read when closed) and reports
    its result (``record_result`` — one flock'd read-modify-write).  This
    benchmark measures that per-claim cost directly against the wall time
    of one real (fast-budget) cell and asserts the healthy-path throughput
    delta stays under 2% in full mode; FAST mode reports without
    asserting (cells are artificially cheap there, inflating the ratio).
    """
    import time as _time

    from repro.api.envelopes import SearchRequest
    from repro.api.session import run_search
    from repro.campaign import CampaignSupervisor

    claims = 200 if FAST_MODE else 1000
    supervised = CampaignSupervisor(
        tmp_path / "supervised",
        CampaignPolicy(circuit_window=8, circuit_threshold=0.5),
    )
    disabled = CampaignSupervisor(tmp_path / "disabled", CampaignPolicy())
    timings = {}
    for label, supervisor in (("supervised", supervised), ("disabled", disabled)):
        supervisor.circuit_allows()  # prime directory + state file
        start = _time.perf_counter()
        for _ in range(claims):
            assert supervisor.circuit_allows()
            supervisor.record_result(True)
        timings[label] = _time.perf_counter() - start
    per_claim_extra_s = max(
        0.0, (timings["supervised"] - timings["disabled"]) / claims
    )

    cell_start = _time.perf_counter()
    run_search(SearchRequest(
        scenario="wifi-3mbps/jetson-tx2-gpu",
        strategy="random",
        num_initial=4,
        num_iterations=2,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
    ))
    cell_wall_s = _time.perf_counter() - cell_start
    overhead_fraction = per_claim_extra_s / cell_wall_s

    text = (
        f"Campaign supervision overhead — {claims} healthy claim cycles\n"
        f"supervised: {claims / timings['supervised']:,.0f} claims/s, "
        f"disabled: {claims / timings['disabled']:,.0f} claims/s, "
        f"extra per claim: {per_claim_extra_s * 1e6:.0f}us\n"
        f"one fast-budget cell: {cell_wall_s:.3f}s -> healthy-path overhead "
        f"{overhead_fraction:.4%} per cell"
    )
    print("\n" + text)
    save_table(
        "campaign_supervisor",
        text,
        {
            "claims": claims,
            "supervised_claims_per_s": claims / timings["supervised"],
            "disabled_claims_per_s": claims / timings["disabled"],
            "extra_per_claim_s": per_claim_extra_s,
            "cell_wall_s": cell_wall_s,
            "supervisor_overhead_fraction": overhead_fraction,
        },
    )
    if not FAST_MODE:
        assert overhead_fraction < 0.02, (
            f"supervision costs {overhead_fraction:.2%} of a cell "
            "(budget: 2%)"
        )


def test_pull_worker_sharded_matches_serial(tmp_path):
    """Distributed variant: pull workers + a shared store vs the serial path.

    The acceptance bar of the distributed campaign service: the same grid
    through 2 pull workers against one shared store yields exactly
    the serial fingerprint set.  Wall clocks are reported, not asserted
    (worker startup dominates at benchmark-smoke budgets).
    """
    spec = SPEC if not FAST_MODE else CampaignSpec(
        scenarios=("wifi-3mbps/jetson-tx2-gpu", "lte-3mbps/jetson-tx2-gpu"),
        strategies=("random",),
        seeds=(2021,),
        num_initial=4,
        num_iterations=2,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
    )
    serial = RunStore(tmp_path / "serial")
    serial_result = run_campaign(spec, serial, workers=1)

    sharded = RunStore(tmp_path / "sharded")
    pull_result = run_campaign(
        spec,
        sharded,
        executor="pull-worker",
        workers=2,
        policy=CampaignPolicy(ttl_s=30.0, poll_s=0.2),
    )
    assert sorted(sharded.fingerprints()) == sorted(serial.fingerprints())
    assert len(pull_result.executed) == spec.num_cells

    text = (
        f"Distributed campaign — {spec.num_cells} cells\n"
        f"serial: {serial_result.wall_time_s:.2f}s, "
        f"pull-worker x2 (shared store): {pull_result.wall_time_s:.2f}s, "
        f"shards: {len(sharded.shard_keys())}, fingerprints match: yes"
    )
    print("\n" + text)
    save_table(
        "campaign_distributed",
        text,
        {
            "cells": spec.num_cells,
            "serial_wall_s": serial_result.wall_time_s,
            "pull_worker_wall_s": pull_result.wall_time_s,
            "workers": 2,
            "shards": len(sharded.shard_keys()),
            "fingerprints_match": True,
        },
    )
