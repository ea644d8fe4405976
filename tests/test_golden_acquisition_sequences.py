"""Seeded regressions for the acquisition paths the other goldens leave open.

``tests/data/golden_incremental_sequences.json`` pins Thompson sampling,
UCB and posterior-mean acquisitions at one candidate per iteration.
``tests/data/golden_acquisition_sequences.json`` pins the rest of what the
surrogate layer computes: EPDC at q=1 and q=4 (Monte-Carlo posterior draws
and the greedy similar-design penalty of ``select_batch``), UCB at q=3,
posterior means at q=2 with periodic lengthscale refreshes, and end-to-end
``run_search`` EPDC q=4 searches in the ``lens-vgg`` and ``resnet-v1``
spaces.  Candidates must match exactly and objectives to ``rtol=1e-9``.
Regenerate the file (only for an intended, versioned change of results)
with::

    PYTHONPATH=src python tests/test_golden_acquisition_sequences.py
"""

import json
from pathlib import Path

import numpy as np
import pytest
from test_incremental_regression import _features, _objectives, _sample

from repro.api import run_search
from repro.optim.mobo import MultiObjectiveBayesianOptimizer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_acquisition_sequences.json"

#: name -> (acquisition, batch_size, optimize_lengthscale_every), on the
#: synthetic problem of ``test_incremental_regression.py``.
SYNTHETIC = {
    "epdc_q1": ("epdc", 1, 0),
    "epdc_q4": ("epdc", 4, 0),
    "ucb_q3": ("ucb", 3, 0),
    "mean_q2_refresh2": ("mean", 2, 2),
}

SPACES = ("lens-vgg", "resnet-v1")


def _synthetic_record(name):
    acquisition, batch_size, refresh = SYNTHETIC[name]
    result = MultiObjectiveBayesianOptimizer(
        sample_fn=_sample,
        feature_fn=_features,
        batch_objective_fn=lambda cs: [_objectives(c) for c in cs],
        num_objectives=2,
        num_initial=6,
        num_iterations=12,
        candidate_pool_size=40,
        acquisition=acquisition,
        batch_size=batch_size,
        optimize_lengthscale_every=refresh,
        seed=7,
    ).run()
    return {
        "candidates": [list(map(int, p.candidate)) for p in result.points],
        "objectives": [[float(v) for v in p.objectives] for p in result.points],
    }


def _search_record(space):
    outcome = run_search(
        strategy="lens",
        scenario="wifi-3mbps/jetson-tx2-gpu",
        search_space=space,
        acquisition="epdc",
        batch_size=4,
        num_initial=4,
        num_iterations=8,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
        seed=123,
    )
    return {
        "candidates": [list(map(int, c.genotype)) for c in outcome.candidates],
        "objectives": [
            [c.error_percent, c.latency_s, c.energy_j] for c in outcome.candidates
        ],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _assert_matches(got, expected):
    assert got["candidates"] == expected["candidates"]
    assert np.allclose(got["objectives"], expected["objectives"], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_sequence_matches_golden(golden, name):
    _assert_matches(_synthetic_record(name), golden["synthetic"][name])


@pytest.mark.parametrize("space", SPACES)
def test_epdc_batch_search_matches_golden(golden, space):
    _assert_matches(_search_record(space), golden["run_search"][f"{space}_epdc_q4_seed123"])


if __name__ == "__main__":
    golden = {
        "synthetic": {name: _synthetic_record(name) for name in sorted(SYNTHETIC)},
        "run_search": {
            f"{space}_epdc_q4_seed123": _search_record(space) for space in SPACES
        },
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
