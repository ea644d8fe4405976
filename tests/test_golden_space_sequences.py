"""Seeded end-to-end regressions for the ``resnet-v1`` and ``seq-conv1d`` spaces.

``tests/data/golden_space_sequences.json`` pins the genotype sequence a
seeded lens search explores in each space, next to the ``lens-vgg`` golden
of ``test_incremental_regression.py``.  A change to sampling, repair,
mutation or the feature projection that moves a random draw or a decision
fails here.  Regenerate the file (only for an intended, versioned change of
results) with::

    PYTHONPATH=src python tests/test_golden_space_sequences.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import run_search

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_space_sequences.json"

SPACES = ("resnet-v1", "seq-conv1d")


def _run(space):
    return run_search(
        strategy="lens",
        scenario="wifi-3mbps/jetson-tx2-gpu",
        search_space=space,
        num_initial=4,
        num_iterations=6,
        candidate_pool_size=16,
        predictor_samples_per_type=40,
        seed=123,
    )


def _record(outcome):
    return {
        "genotypes": [list(map(int, c.genotype)) for c in outcome.candidates],
        "objectives": [
            [c.error_percent, c.latency_s, c.energy_j] for c in outcome.candidates
        ],
    }


@pytest.mark.parametrize("space", SPACES)
def test_lens_sequence_matches_golden(space):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[f"{space}_seed123"]
    got = _record(_run(space))
    assert got["genotypes"] == expected["genotypes"]
    assert np.allclose(got["objectives"], expected["objectives"], rtol=1e-9, atol=1e-12)


if __name__ == "__main__":
    golden = {f"{space}_seed123": _record(_run(space)) for space in SPACES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
