"""Ablation — acquisition strategy of the MOBO search.

The paper builds its NAS on Dragonfly's multi-objective Bayesian optimization
but does not ablate the acquisition strategy.  This benchmark compares
Thompson sampling (the default), lower-confidence-bound and pure random
selection under a reduced budget, reporting the hypervolume of the resulting
(error, energy) Pareto fronts.  It quantifies how much of LENS's advantage
comes from model-based search versus from the partition-aware objectives
(which all three variants share).
"""

from __future__ import annotations

import os

from conftest import save_table

from repro.api import run_search
from repro.optim.pareto import hypervolume_2d
from repro.utils.serialization import format_table

FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "0") == "1"
NUM_INITIAL = 8 if FAST_MODE else 15
NUM_ITERATIONS = 12 if FAST_MODE else 60

ACQUISITIONS = ("ts", "ucb", "random")


def run_ablation(search_space, predictor):
    runs = {}
    for acquisition in ACQUISITIONS:
        runs[acquisition] = run_search(
            scenario="wifi-3mbps/jetson-tx2-gpu",
            num_initial=NUM_INITIAL,
            num_iterations=NUM_ITERATIONS,
            candidate_pool_size=64,
            acquisition=acquisition,
            seed=13,
            search_space=search_space,
            predictor=predictor,
        ).result
    return runs


def test_ablation_acquisition_strategies(benchmark, search_space, trained_gpu_predictor):
    """Compare Pareto-front quality across acquisition strategies."""
    runs = benchmark.pedantic(
        run_ablation, args=(search_space, trained_gpu_predictor), rounds=1, iterations=1
    )

    # A common reference point covering every run's objective ranges.
    all_points = [
        run.objective_matrix(("error_percent", "energy_j")) for run in runs.values()
    ]
    reference = [
        max(float(m[:, 0].max()) for m in all_points) * 1.05,
        max(float(m[:, 1].max()) for m in all_points) * 1.05,
    ]

    rows = []
    payload = {"reference": reference, "budget": NUM_INITIAL + NUM_ITERATIONS}
    for acquisition, run in runs.items():
        front = run.pareto_objectives(("error_percent", "energy_j"))
        hv = hypervolume_2d(front, reference)
        best_error = min(c.error_percent for c in run)
        best_energy_mj = min(c.energy_mj for c in run)
        rows.append(
            [acquisition, len(run), front.shape[0], round(hv, 3), round(best_error, 2), round(best_energy_mj, 1)]
        )
        payload[acquisition] = {
            "hypervolume": hv,
            "front_size": int(front.shape[0]),
            "best_error_percent": best_error,
            "best_energy_mj": best_energy_mj,
        }
    headers = ["acquisition", "evaluations", "front size", "hypervolume", "best error %", "best energy mJ"]
    text = (
        "Ablation — acquisition strategy (error/energy front quality, same budget)\n"
        + format_table(rows, headers)
    )
    print("\n" + text)
    save_table("ablation_acquisition", text, payload)

    hv_by_acq = {row[0]: row[3] for row in rows}
    # The model-based strategies should not be clearly worse than random.
    assert hv_by_acq["ts"] >= 0.8 * hv_by_acq["random"]
