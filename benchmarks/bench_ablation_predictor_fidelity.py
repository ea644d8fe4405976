"""Ablation — fidelity of the per-layer regression predictors (paper IV-C).

The NAS never sees the measurement apparatus directly; it relies on the
regression models trained from profiled layer configurations.  This ablation
quantifies how close the regression predictions are to the (noise-free)
measurement oracle across sampled search-space architectures and AlexNet, and
how the fidelity depends on the amount of profiling data — the practical
question a user of the methodology faces when budgeting board time.
"""

from __future__ import annotations

import os

from conftest import save_table

from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import (
    LayerPerformancePredictor,
    prediction_error_report,
)
from repro.nn.alexnet import build_alexnet
from repro.utils.serialization import format_table

FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "0") == "1"
# Smoke runs keep the last budget: the assertions below are about it.
PROFILE_BUDGETS = (30, 100, 300) if not FAST_MODE else (30, 300)
NUM_ARCHITECTURES = 12 if not FAST_MODE else 6


def run_fidelity_study(search_space):
    device = jetson_tx2_gpu()
    architectures = [
        search_space.decode_for_performance(search_space.sample(seed))
        for seed in range(NUM_ARCHITECTURES)
    ]
    architectures.append(build_alexnet())
    rows = []
    for budget in PROFILE_BUDGETS:
        predictor = LayerPerformancePredictor.train_for_device(
            device, noise_std=0.03, samples_per_type=budget, seed=1
        )
        report = prediction_error_report(predictor, architectures)
        scores = predictor.training_scores
        rows.append(
            {
                "profiles_per_family": budget,
                "latency_mape_percent": report["latency_mape"] * 100,
                "energy_mape_percent": report["energy_mape"] * 100,
                "conv_latency_r2": scores["conv"]["latency_r2"],
                "fc_latency_r2": scores["fc"]["latency_r2"],
            }
        )
    return rows


def test_ablation_predictor_fidelity(benchmark, search_space):
    """Prediction error vs profiling budget for the latency/power models."""
    rows = benchmark.pedantic(run_fidelity_study, args=(search_space,), rounds=1, iterations=1)
    table_rows = [
        [
            row["profiles_per_family"],
            round(row["latency_mape_percent"], 2),
            round(row["energy_mape_percent"], 2),
            round(row["conv_latency_r2"], 4),
            round(row["fc_latency_r2"], 4),
        ]
        for row in rows
    ]
    headers = [
        "profiles / family",
        "whole-model latency MAPE %",
        "whole-model energy MAPE %",
        "conv latency R2",
        "fc latency R2",
    ]
    text = (
        "Ablation — regression-predictor fidelity vs profiling budget (TX2-GPU)\n"
        + format_table(table_rows, headers)
    )
    print("\n" + text)
    save_table("ablation_predictor_fidelity", text, {"rows": rows})

    # With a realistic profiling budget the whole-model error stays small
    # enough for search-time ranking.
    assert rows[-1]["latency_mape_percent"] < 25.0
    assert rows[-1]["energy_mape_percent"] < 30.0
    assert rows[-1]["conv_latency_r2"] > 0.9
