"""Shared fixtures for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper.  The
expensive artefacts (performance predictors, full LENS / Traditional search
runs) are computed once per session here and shared; the ``benchmark``
fixture of pytest-benchmark then times a representative unit of work from the
experiment so `pytest benchmarks/ --benchmark-only` produces meaningful
timing rows as well as the reproduced tables.

Environment knobs
-----------------
``REPRO_BENCH_FAST=1``
    Shrink the search budgets (used by CI-style smoke runs).  The default
    budget matches the paper: 300 Bayesian-search evaluations per method.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.core.lens import LensConfig, LensSearch
from repro.core.traditional import TraditionalSearch
from repro.hardware.device import jetson_tx2_cpu, jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor, OracleLayerPredictor
from repro.nn.alexnet import build_alexnet
from repro.nn.search_space import LensSearchSpace
from repro.utils.serialization import dump_json

#: Directory where benchmark tables are written (text + JSON).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

# The scalar reference implementations the parity gates compare against
# live with the tests (``tests/oracles/``); appended, so ``conftest`` and
# the benchmark modules still resolve here first.
_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Search budget: the paper runs each Bayesian search for 300 iterations.
NUM_INITIAL = 10 if FAST_MODE else 30
NUM_ITERATIONS = 20 if FAST_MODE else 270
POOL_SIZE = 48 if FAST_MODE else 128
PREDICTOR_SAMPLES = 80 if FAST_MODE else 300
SEED = 2021


def save_table(name: str, text: str, payload) -> None:
    """Persist one benchmark table as .txt (human) and .json (machine)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    dump_json(payload, RESULTS_DIR / f"{name}.json")


@pytest.fixture(scope="session")
def alexnet():
    """AlexNet reference model used by the motivational-example benchmarks."""
    return build_alexnet()


@pytest.fixture(scope="session")
def gpu_oracle():
    """Noise-free TX2-GPU per-layer predictor."""
    return OracleLayerPredictor(jetson_tx2_gpu())


@pytest.fixture(scope="session")
def cpu_oracle():
    """Noise-free TX2-CPU per-layer predictor."""
    return OracleLayerPredictor(jetson_tx2_cpu())


@pytest.fixture(scope="session")
def trained_gpu_predictor():
    """Regression predictor trained from simulated profiling data (paper IV-C)."""
    return LayerPerformancePredictor.train_for_device(
        jetson_tx2_gpu(), noise_std=0.03, samples_per_type=PREDICTOR_SAMPLES, seed=SEED
    )


@pytest.fixture(scope="session")
def search_space():
    """The paper's VGG-derived search space (Fig. 4)."""
    return LensSearchSpace()


@pytest.fixture(scope="session")
def lens_config():
    """The paper's main experimental configuration: GPU/WiFi, tu = 3 Mbps."""
    return LensConfig(
        wireless_technology="wifi",
        expected_uplink_mbps=3.0,
        round_trip_s=0.01,
        device="jetson-tx2-gpu",
        num_initial=NUM_INITIAL,
        num_iterations=NUM_ITERATIONS,
        candidate_pool_size=POOL_SIZE,
        predictor_samples_per_type=PREDICTOR_SAMPLES,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def lens_run(search_space, lens_config, trained_gpu_predictor):
    """One full LENS search run (search object + result)."""
    search = LensSearch(
        search_space=search_space, config=lens_config, predictor=trained_gpu_predictor
    )
    result = search.run()
    return {"search": search, "result": result}


@pytest.fixture(scope="session")
def traditional_run(search_space, lens_config, trained_gpu_predictor):
    """One full Traditional (edge-only NAS) run plus its post-hoc partitioning."""
    search = TraditionalSearch(
        search_space=search_space, config=lens_config, predictor=trained_gpu_predictor
    )
    result = search.run()
    partitioned_front = search.partition_result(result, pareto_only=True)
    partitioned_all = search.partition_result(result, pareto_only=False)
    return {
        "search": search,
        "result": result,
        "partitioned_front": partitioned_front,
        "partitioned_all": partitioned_all,
    }
