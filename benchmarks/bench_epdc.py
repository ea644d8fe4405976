"""EPDC q-batch acquisition: golden parity, throughput, hypervolume at budget.

PR 8 added a front-aware acquisition (``acquisition="epdc"``) and a batched
q-point selection loop to :class:`~repro.optim.mobo.MultiObjectiveBayesianOptimizer`.
This benchmark guards the two claims that rework makes:

* **Parity** — the batched while-loop is a pure superset of the old for-loop:
  with ``batch_size=1`` the legacy strategies (``ts``/``ucb``/``mean``) must
  still walk the *byte-identical* candidate sequences recorded in
  ``tests/data/golden_incremental_sequences.json`` before the rework.  This
  gate is asserted on every run (it is what the CI smoke job enforces).
* **Front quality** — at an equal evaluation budget on the paper's
  ``lens-vgg`` space, an EPDC search with ``q = 4`` candidates per iteration
  should dominate at least as much objective volume as the default Thompson
  sampling search.  Both fronts are scored with the exact 3-D hypervolume
  under one shared reference box (the pooled nadir of both runs, padded 5%).
  The ``hv_epdc >= hv_ts`` floor is only asserted on full-size runs
  (``REPRO_BENCH_FAST=0``) — at smoke budgets the fronts are too small for
  the ordering to be stable, so fast runs record the ratio without gating.

Timing is reported (evaluations/s per strategy, acquisition overhead per
iteration) but never asserted: EPDC pays for its Monte-Carlo front scoring
with extra posterior draws, and the point of q-batching is amortizing that
cost — the numbers document the trade, they are not a race.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from conftest import (
    FAST_MODE,
    NUM_INITIAL,
    NUM_ITERATIONS,
    POOL_SIZE,
    PREDICTOR_SAMPLES,
    SEED,
    save_table,
)

from repro.api import run_search
from repro.api.engine import EvaluationEngine
from repro.optim.mobo import MultiObjectiveBayesianOptimizer
from repro.optim.pareto import hypervolume, pareto_front_mask
from repro.utils.serialization import format_table

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests"
    / "data"
    / "golden_incremental_sequences.json"
)

#: The three search objectives scored by the shared hypervolume box.
OBJECTIVES = ("error_percent", "latency_s", "energy_j")

#: Candidates selected per EPDC iteration (the q of q-batch selection).
EPDC_BATCH_SIZE = 4

#: Strategies checked against the pre-rework golden sequences.
PARITY_STRATEGIES = ("ts", "ucb", "mean")


# ------------------------------------------------------------------ parity

GRID = 21


def _sample(rng):
    return np.array([rng.integers(0, GRID), rng.integers(0, GRID)])


def _features(candidate):
    return np.asarray(candidate, dtype=float) / (GRID - 1)


def _objectives(candidate):
    x = np.asarray(candidate, dtype=float) / (GRID - 1)
    return np.array([x[0], (1 + x[1]) * (1 - np.sqrt(x[0] / (1 + x[1])))]), {}


def _golden_parity():
    """Replay the pre-rework synthetic searches; count byte-level mismatches."""
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["synthetic"]
    mismatches = 0
    for acquisition in PARITY_STRATEGIES:
        result = MultiObjectiveBayesianOptimizer(
            sample_fn=_sample,
            feature_fn=_features,
            batch_objective_fn=lambda cs: [_objectives(c) for c in cs],
            num_objectives=2,
            num_initial=6,
            num_iterations=12,
            candidate_pool_size=40,
            acquisition=acquisition,
            batch_size=1,
            seed=7,
        ).run()
        candidates = [list(map(int, p.candidate)) for p in result.points]
        if candidates != golden[acquisition]["candidates"]:
            mismatches += 1
    return mismatches


# ------------------------------------------------------- searches at budget


def _search(acquisition, batch_size):
    """One seeded lens-vgg search at the shared benchmark budget."""
    start = time.perf_counter()
    outcome = run_search(
        strategy="lens",
        scenario="wifi-3mbps/jetson-tx2-gpu",
        engine=EvaluationEngine(),
        acquisition=acquisition,
        batch_size=batch_size,
        num_initial=NUM_INITIAL,
        num_iterations=NUM_ITERATIONS,
        candidate_pool_size=POOL_SIZE,
        predictor_samples_per_type=PREDICTOR_SAMPLES,
        seed=SEED,
    )
    return outcome, time.perf_counter() - start


def _shared_reference(matrices, padding=1.05):
    """One reference box enclosing every run's objectives (pooled nadir + 5%)."""
    pooled = np.vstack(matrices)
    return [float(value) * padding for value in pooled.max(axis=0)]


def test_epdc_parity_throughput_and_hypervolume_at_budget():
    """Golden parity every run; epdc(q=4) >= ts hypervolume on full runs."""
    golden_mismatches = _golden_parity()

    runs = {}
    for label, acquisition, batch_size in (
        ("ts", "ts", 1),
        (f"epdc q={EPDC_BATCH_SIZE}", "epdc", EPDC_BATCH_SIZE),
    ):
        runs[label] = _search(acquisition, batch_size)

    matrices = {
        label: outcome.result.objective_matrix(OBJECTIVES)
        for label, (outcome, _) in runs.items()
    }
    reference = _shared_reference(list(matrices.values()))

    rows = []
    budget = NUM_INITIAL + NUM_ITERATIONS
    payload = {
        "fast_mode": FAST_MODE,
        "budget": budget,
        "pool_size": POOL_SIZE,
        "epdc_batch_size": EPDC_BATCH_SIZE,
        "objectives": list(OBJECTIVES),
        "reference": reference,
        "golden_parity_mismatches": golden_mismatches,
        "golden_parity": golden_mismatches == 0,
    }
    volumes = {}
    for label, (outcome, elapsed) in runs.items():
        matrix = matrices[label]
        front = matrix[pareto_front_mask(matrix)]
        volume = hypervolume(front, reference)
        volumes[label] = volume
        evals_per_s = len(outcome) / elapsed if elapsed > 0 else float("inf")
        rows.append(
            [
                label,
                len(outcome),
                int(front.shape[0]),
                round(volume, 4),
                round(elapsed, 1),
                round(evals_per_s, 1),
            ]
        )
        key = "epdc" if label.startswith("epdc") else label
        payload[key] = {
            "evaluations": len(outcome),
            "front_size": int(front.shape[0]),
            "hypervolume": volume,
            "wall_s": elapsed,
            "evals_per_s": evals_per_s,
            "final_front_hypervolume": outcome.front_history.final_hypervolume,
        }

    epdc_label = f"epdc q={EPDC_BATCH_SIZE}"
    hv_ratio = (
        volumes[epdc_label] / volumes["ts"] if volumes["ts"] > 0 else float("inf")
    )
    payload["hv_ratio_epdc_vs_ts"] = hv_ratio

    text = (
        "EPDC q-batch acquisition vs Thompson sampling "
        f"(lens-vgg, budget {budget}, seed {SEED}, "
        f"{'fast' if FAST_MODE else 'full'} mode)\n"
        f"shared 3-D reference box: {[round(v, 4) for v in reference]}, "
        f"golden parity mismatches: {golden_mismatches}\n"
        + format_table(
            rows,
            [
                "strategy",
                "evaluations",
                "front size",
                "hypervolume",
                "wall s",
                "evals/s",
            ],
        )
    )
    print("\n" + text)
    save_table("epdc", text, payload)

    # Assertions come *after* save_table so a failing run still records its
    # figures (the CI job uploads them as an artifact).
    assert golden_mismatches == 0, (
        "the batched acquisition loop changed a legacy strategy's seeded "
        f"candidate sequence ({golden_mismatches} strategy/strategies drifted)"
    )
    for label, (outcome, _) in runs.items():
        assert len(outcome) == budget, f"{label} run missed the budget"
    if not FAST_MODE:
        assert volumes[epdc_label] >= volumes["ts"], (
            "EPDC q-batch selection should dominate at least the Thompson "
            f"sampling volume at equal budget: epdc {volumes[epdc_label]:.4f} "
            f"< ts {volumes['ts']:.4f} (ratio {hv_ratio:.3f})"
        )
