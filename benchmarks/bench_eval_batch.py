"""Candidate-evaluation hot path: per-candidate scalar loops vs the batched engine.

With the surrogate phase off the critical path (``bench_gp_hotpath.py``), a
search iteration's dominant cost is candidate evaluation: running the
per-layer performance predictors and costing every deployment option under
the scenario's wireless channels.  The seed behaviour evaluated one model at
a time — one regression call per layer per candidate, then a Python loop
over cut points per channel.  The batched engine
(:meth:`repro.api.engine.EvaluationEngine.evaluate_batch`) instead costs a
whole candidate pool as matrices: per-family feature matrices and two
matmuls per family for the predictors, and broadcast prefix-sum/mask
arithmetic across all cut points and channels for the partitioner.

This benchmark replays the evaluation phase of a search — the stream of
candidate pools a 300-evaluation run would cost — two ways:

* ``scalar`` — the per-candidate reference path: each candidate's
  ``(latency, power)`` array built layer by layer with the per-layer
  predictor oracle (``tests/oracles/predictor.py``), then the scalar
  Algorithm 1 oracle (``tests/oracles/partition.py``) per channel, with
  the per-layer predictions shared across channels;
* ``batched`` — ``EvaluationEngine.evaluate_batch`` over each pool with the
  same channels (cold caches, so every candidate is genuinely computed).

Batched-vs-scalar parity (every metric of every deployment option of every
``(candidate, channel)`` pair, plus cut-point sets and option order) is
asserted at <= 1e-9 on every run — the correctness gate the CI smoke job
enforces.  The >= 5x timing floor is only asserted on full-size runs
(``REPRO_BENCH_FAST=0``).

``test_evaluate_pool_memo_smoke`` evaluates one pool per built-in space
through ``PartitionAwareEvaluator.evaluate_pool`` against a cold layer
table (in a fresh interpreter: this module run as a script, one space per
run) and against this process's warm one, asserts identical objective
vectors and records, and writes both timings with the table rows each pass
added to ``results/eval_memo_smoke.json``.  It never fails on timing.

``test_evaluate_pool_oracle_smoke`` evaluates one pool per built-in space,
of the random strategy's chunk size, through ``evaluate_pool`` and through
the per-candidate oracle (``tests/oracles/evaluation.py``: two ``decode``
calls and per-row surrogate statistics per candidate), asserts equal
objective bytes and record JSON, and writes both timings to
``results/eval_pool_smoke.json``.  It never fails on timing.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
from conftest import FAST_MODE, PREDICTOR_SAMPLES, SEED, save_table
from oracles import evaluation as evaluation_oracle
from oracles import partition as oracle
from oracles import predictor as predictor_oracle

from repro.accuracy.surrogate import AccuracySurrogate
from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.api.session import _RANDOM_EVAL_CHUNK
from repro.core.evaluation import PartitionAwareEvaluator
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor
from repro.nn.table import LAYER_TABLE
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

#: Candidates per pool (the MOBO loop's init pool / acquisition pool scale).
POOL_SIZE = 16 if FAST_MODE else 32

#: Total candidates replayed: the paper-scale 300-evaluation search budget.
NUM_CANDIDATES = 48 if FAST_MODE else 300

#: Maximum allowed batched-vs-scalar divergence, asserted on every run.
PARITY_TOLERANCE = 1e-9

#: Timing floor for the full-size run (scalar seconds / batched seconds).
SPEEDUP_FLOOR = 5.0

#: Timed repetitions per path; the best run is scored (noise robustness).
REPEATS = 3

#: Spaces of the table and oracle smokes.
MEMO_SMOKE_SPACES = ("lens-vgg", "resnet-v1", "seq-conv1d")

#: Metric fields compared per deployment option.
_METRIC_FIELDS = (
    "latency_s",
    "energy_j",
    "edge_latency_s",
    "edge_energy_j",
    "comm_latency_s",
    "comm_energy_j",
    "transferred_bytes",
)


def _channels():
    """The two-channel scenario mix: design-time WiFi plus a fallback LTE."""
    return [
        WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.01),
        WirelessChannel.create("lte", uplink_mbps=1.1, round_trip_s=0.05),
    ]


def _sample_pools(space, total, pool_size, seed=SEED):
    """Decoded performance architectures, chunked into candidate pools."""
    rng = np.random.default_rng(seed)
    architectures = [
        space.decode_for_performance(space.sample(rng)) for _ in range(total)
    ]
    for architecture in architectures:
        architecture.summarize()  # pre-warm shape inference for both paths
    return [
        architectures[start : start + pool_size]
        for start in range(0, total, pool_size)
    ]


def _scalar_replay(pools, predictor, channels):
    """The seed path: per-layer predict loop + scalar Algorithm 1 per channel."""
    analyzers = [PartitionAnalyzer(predictor, channel) for channel in channels]
    results = []
    start = time.perf_counter()
    for pool in pools:
        for architecture in pool:
            predictions = predictor_oracle.predict_architecture(predictor, architecture)
            results.append(
                [
                    oracle.evaluate(analyzer, architecture, predictions=predictions)
                    for analyzer in analyzers
                ]
            )
    return time.perf_counter() - start, results


def _batched_replay(pools, predictor, channels):
    """The batched engine path, cold caches (every candidate computed)."""
    engine = EvaluationEngine()
    analyzer = PartitionAnalyzer(predictor, channels[0])
    results = []
    start = time.perf_counter()
    for pool in pools:
        results.extend(engine.evaluate_batch(pool, analyzer, channels=channels))
    return time.perf_counter() - start, results


def _best_of(replay, pools, predictor, channels, repeats=REPEATS):
    """Best wall time over ``repeats`` runs (plus the last run's results).

    Both replays are deterministic — every run computes identical results
    from cold caches — so the fastest run is the least noise-contaminated
    measurement of the same work.
    """
    best = float("inf")
    results = None
    for _ in range(repeats):
        elapsed, results = replay(pools, predictor, channels)
        if elapsed < best:
            best = elapsed
    return best, results


def _max_divergence(scalar_results, batched_results):
    """Worst absolute metric difference across all pairs, options and fields."""
    worst = 0.0
    for scalar_row, batched_row in zip(scalar_results, batched_results):
        for scalar_eval, batched_eval in zip(scalar_row, batched_row):
            assert (
                scalar_eval.partition_point_indices
                == batched_eval.partition_point_indices
            )
            assert [m.option.label for m in scalar_eval.options] == [
                m.option.label for m in batched_eval.options
            ]
            for scalar_metrics, batched_metrics in zip(
                scalar_eval.options, batched_eval.options
            ):
                for field in _METRIC_FIELDS:
                    delta = abs(
                        getattr(scalar_metrics, field)
                        - getattr(batched_metrics, field)
                    )
                    if delta > worst:
                        worst = delta
    return worst


def test_batched_evaluation_speedup_and_parity(search_space, trained_gpu_predictor):
    """Batched pool evaluation must match the scalar path and (full runs) beat it 5x."""
    channels = _channels()
    pools = _sample_pools(search_space, NUM_CANDIDATES, POOL_SIZE)

    # Warm-up (populates BLAS/allocator caches fairly for both paths).
    _batched_replay(pools[:1], trained_gpu_predictor, channels)
    _scalar_replay(pools[:1], trained_gpu_predictor, channels)

    scalar_s, scalar_results = _best_of(
        _scalar_replay, pools, trained_gpu_predictor, channels
    )
    batched_s, batched_results = _best_of(
        _batched_replay, pools, trained_gpu_predictor, channels
    )
    divergence = _max_divergence(scalar_results, batched_results)
    speedup = scalar_s / batched_s if batched_s > 0 else float("inf")

    from repro.utils.serialization import format_table

    per_candidate_scalar = scalar_s / NUM_CANDIDATES * 1e6
    per_candidate_batched = batched_s / NUM_CANDIDATES * 1e6
    text = (
        "Candidate-evaluation hot path — scalar per-candidate loop vs batched engine\n"
        f"({NUM_CANDIDATES} candidates in pools of {POOL_SIZE}, "
        f"{len(channels)} channels, {'fast' if FAST_MODE else 'full'} mode)\n"
        + format_table(
            [
                [
                    NUM_CANDIDATES,
                    POOL_SIZE,
                    len(channels),
                    round(scalar_s * 1e3, 1),
                    round(batched_s * 1e3, 1),
                    round(per_candidate_scalar, 1),
                    round(per_candidate_batched, 1),
                    round(speedup, 1),
                    f"{divergence:.1e}",
                ]
            ],
            [
                "candidates",
                "pool",
                "channels",
                "scalar ms",
                "batched ms",
                "scalar us/cand",
                "batched us/cand",
                "speedup",
                "parity",
            ],
        )
    )
    print("\n" + text)
    save_table(
        "eval_batch",
        text,
        {
            "num_candidates": NUM_CANDIDATES,
            "pool_size": POOL_SIZE,
            "channels": [c.to_dict() for c in channels],
            "fast_mode": FAST_MODE,
            "parity_tolerance": PARITY_TOLERANCE,
            "scalar_s": scalar_s,
            "batched_s": batched_s,
            "scalar_us_per_candidate": per_candidate_scalar,
            "batched_us_per_candidate": per_candidate_batched,
            "speedup": speedup,
            "max_divergence": divergence,
            "speedup_floor": None if FAST_MODE else SPEEDUP_FLOOR,
        },
    )
    # Assertions come *after* save_table so a failing run still records its
    # timings/divergence (the CI job uploads them as an artifact).
    assert divergence <= PARITY_TOLERANCE, (
        "batched evaluation diverged from the scalar reference: "
        f"{divergence:.3e} > {PARITY_TOLERANCE:.0e}"
    )
    if not FAST_MODE:
        assert speedup >= SPEEDUP_FLOOR, (
            "the evaluation phase of a 300-candidate search should be "
            f">= {SPEEDUP_FLOOR:.0f}x faster batched, measured {speedup:.1f}x"
        )


def test_batched_evaluation_graph_aware_parity(trained_gpu_predictor):
    """Skip-edge spaces: batched costing honours graph cut masks exactly."""
    from repro.api.registry import SEARCH_SPACES

    channels = _channels()
    space = SEARCH_SPACES.create("resnet-v1")
    rng = np.random.default_rng(SEED)
    architectures = [
        space.decode_for_performance(space.sample(rng)) for _ in range(8)
    ]
    graphs = [space.partition_graph(a) for a in architectures]
    analyzer = PartitionAnalyzer(trained_gpu_predictor, channels[0])
    batched = analyzer.evaluate_batch(
        architectures, channels=channels, graphs=graphs
    )
    scalar = [
        [
            oracle.evaluate(analyzer.with_channel(channel), architecture, graph=graph)
            for channel in channels
        ]
        for architecture, graph in zip(architectures, graphs)
    ]
    divergence = _max_divergence(scalar, batched)
    assert divergence <= PARITY_TOLERANCE
    # Residual candidates must actually exercise the skip-edge mask.
    assert any(not graph.is_linear for graph in graphs)


def _outputs(records):
    """A pool's objective vectors as bytes and its records as JSON text."""
    objectives = np.array([objectives for objectives, _ in records]).tobytes()
    return objectives, [json.dumps(meta["evaluation"].to_dict()) for _, meta in records]


def _table_pass(space_name, predictor):
    """One timed ``evaluate_pool`` of the space's smoke pool, as JSON-ready data.

    Returns the seconds it took, the layer-table rows it added and its
    objective bytes (hex) and record JSON.
    """
    space = SEARCH_SPACES.create(space_name)
    rng = np.random.default_rng(SEED)
    genotypes = [space.sample(rng) for _ in range(POOL_SIZE)]
    analyzer = PartitionAnalyzer(predictor, _channels()[0])
    evaluator = PartitionAwareEvaluator(space, AccuracySurrogate(), analyzer)
    rows = LAYER_TABLE.size
    start = time.perf_counter()
    records = evaluator.evaluate_pool(genotypes)
    elapsed = time.perf_counter() - start
    objectives, texts = _outputs(records)
    return {
        "seconds": elapsed,
        "rows_added": LAYER_TABLE.size - rows,
        "outputs": [objectives.hex(), texts],
    }


def test_evaluate_pool_memo_smoke(trained_gpu_predictor):
    """Cold-table and warm-table pool evaluations agree exactly, per space."""
    rows = []
    mismatched = []
    payload = {"pool_size": POOL_SIZE, "fast_mode": FAST_MODE, "spaces": {}}
    for name in MEMO_SMOKE_SPACES:
        completed = subprocess.run(
            [sys.executable, __file__, name],
            capture_output=True,
            text=True,
            timeout=600,
            check=True,
        )
        cold = json.loads(completed.stdout)
        _table_pass(name, trained_gpu_predictor)  # warm the table for this pool
        warm = _table_pass(name, trained_gpu_predictor)
        identical = cold["outputs"] == warm["outputs"]
        if not identical:
            mismatched.append(name)
        payload["spaces"][name] = {
            "cold_s": cold["seconds"],
            "warm_s": warm["seconds"],
            "cold_rows_added": cold["rows_added"],
            "warm_rows_added": warm["rows_added"],
            "table_rows": LAYER_TABLE.size,
            "identical": identical,
        }
        rows.append(
            [
                name,
                round(cold["seconds"] * 1e3, 1),
                round(warm["seconds"] * 1e3, 1),
                cold["rows_added"],
                warm["rows_added"],
            ]
        )

    from repro.utils.serialization import format_table

    text = (
        f"evaluate_pool with a cold vs a warm layer table ({POOL_SIZE} candidates "
        f"per space, {'fast' if FAST_MODE else 'full'} mode)\n"
        + format_table(
            rows, ["space", "cold ms", "warm ms", "cold rows added", "warm rows added"]
        )
    )
    print("\n" + text)
    save_table("eval_memo_smoke", text, payload)
    assert not mismatched, f"a warm layer table changed pool results in {mismatched}"


def test_evaluate_pool_oracle_smoke(trained_gpu_predictor):
    """Pool evaluation and the per-candidate oracle agree exactly, per space."""
    analyzer = PartitionAnalyzer(trained_gpu_predictor, _channels()[0])
    rows = []
    mismatched = []
    payload = {"pool_size": _RANDOM_EVAL_CHUNK, "spaces": {}}
    for name in MEMO_SMOKE_SPACES:
        space = SEARCH_SPACES.create(name)
        rng = np.random.default_rng(SEED)
        genotypes = [space.sample(rng) for _ in range(_RANDOM_EVAL_CHUNK)]
        evaluator = PartitionAwareEvaluator(space, AccuracySurrogate(), analyzer)
        evaluator.evaluate_pool(genotypes)  # warm the layer table for both paths
        start = time.perf_counter()
        pooled = evaluator.evaluate_pool(genotypes)
        pool_s = time.perf_counter() - start
        start = time.perf_counter()
        reference = evaluation_oracle.evaluate_pool(evaluator, genotypes)
        oracle_s = time.perf_counter() - start
        identical = _outputs(pooled) == _outputs(reference)
        if not identical:
            mismatched.append(name)
        payload["spaces"][name] = {
            "pool_s": pool_s,
            "oracle_s": oracle_s,
            "identical": identical,
        }
        rows.append(
            [name, round(pool_s * 1e3, 1), round(oracle_s * 1e3, 1), identical]
        )

    from repro.utils.serialization import format_table

    text = (
        f"evaluate_pool vs the per-candidate oracle ({_RANDOM_EVAL_CHUNK} "
        "candidates per space, warm layer table)\n"
        + format_table(rows, ["space", "pool ms", "oracle ms", "identical"])
    )
    print("\n" + text)
    save_table("eval_pool_smoke", text, payload)
    assert not mismatched, f"evaluate_pool diverged from the oracle in {mismatched}"


if __name__ == "__main__":
    # The cold pass of the table smoke: a fresh interpreter starts with an
    # empty layer table.  The predictor is trained as the
    # ``trained_gpu_predictor`` fixture trains it.
    _predictor = LayerPerformancePredictor.train_for_device(
        jetson_tx2_gpu(), noise_std=0.03, samples_per_type=PREDICTOR_SAMPLES, seed=SEED
    )
    print(json.dumps(_table_pass(sys.argv[1], _predictor)))
