"""Seeded regressions: the incremental surrogate path selects seed-identical candidates.

``tests/data/golden_incremental_sequences.json`` was generated with the
pre-incremental code (cold per-model GP refits every iteration).  These tests
assert that the shared-Cholesky bank's rank-1 updates drive seeded searches
through the *identical* candidate sequences, i.e. the perf rework changed no
decisions.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import run_search
from repro.optim.mobo import MultiObjectiveBayesianOptimizer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_incremental_sequences.json"

GRID = 21


def _sample(rng):
    return np.array([rng.integers(0, GRID), rng.integers(0, GRID)])


def _features(candidate):
    return np.asarray(candidate, dtype=float) / (GRID - 1)


def _objectives(candidate):
    x = np.asarray(candidate, dtype=float) / (GRID - 1)
    return np.array([x[0], (1 + x[1]) * (1 - np.sqrt(x[0] / (1 + x[1])))]), {}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _synthetic_run(acquisition, seed, iterations, pool, refresh=0):
    return MultiObjectiveBayesianOptimizer(
        sample_fn=_sample,
        feature_fn=_features,
        batch_objective_fn=lambda cs: [_objectives(c) for c in cs],
        num_objectives=2,
        num_initial=6,
        num_iterations=iterations,
        candidate_pool_size=pool,
        acquisition=acquisition,
        optimize_lengthscale_every=refresh,
        seed=seed,
    ).run()


@pytest.mark.parametrize("acquisition", ["ts", "ucb", "mean"])
def test_synthetic_sequences_match_pre_incremental_seed(golden, acquisition):
    result = _synthetic_run(acquisition, seed=7, iterations=12, pool=40)
    expected = golden["synthetic"][acquisition]
    assert [list(map(int, p.candidate)) for p in result.points] == expected["candidates"]
    assert np.allclose(
        [[float(v) for v in p.objectives] for p in result.points],
        expected["objectives"],
    )


def test_lengthscale_refresh_sequence_matches_pre_incremental_seed(golden):
    result = _synthetic_run("ts", seed=11, iterations=10, pool=32, refresh=3)
    expected = golden["synthetic"]["ts_refresh"]
    assert [list(map(int, p.candidate)) for p in result.points] == expected["candidates"]


def test_run_search_candidate_sequence_matches_pre_incremental_seed(golden):
    """End-to-end: run_search on defaults explores the identical genotypes."""
    outcome = run_search(
        strategy="lens",
        scenario="wifi-3mbps/jetson-tx2-gpu",
        num_initial=4,
        num_iterations=6,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
        seed=123,
    )
    expected = golden["run_search"]["lens_seed123"]
    assert [list(map(int, c.genotype)) for c in outcome.candidates] == expected["genotypes"]
    got_objectives = [
        [c.error_percent, c.latency_s, c.energy_j] for c in outcome.candidates
    ]
    assert np.allclose(got_objectives, expected["objectives"], rtol=1e-9, atol=1e-12)
