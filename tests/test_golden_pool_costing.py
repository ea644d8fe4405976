"""Bit-exact regression for pool costing under the trained regression predictor.

``tests/data/golden_pool_costing.json`` pins, for every built-in space plus
the stride-downsampling, projection-shortcut ResNet, what
``PartitionAwareEvaluator.evaluate_pool`` returns for a seeded 64-genotype
pool with duplicates and for that pool's first row alone, under a trained
``LayerPerformancePredictor`` (``jetson_tx2_gpu``, 60 profiles per layer
family, seed 0), once through a fresh ``EvaluationEngine`` and once without
an engine.  Each objective is stored as ``float.hex`` and each pool's
records as one SHA-256 of their canonical JSON, so a drift in the last bit
of any predicted latency, power or error fails here.  Regenerate the file
(only for an intended, versioned change of results) with::

    PYTHONPATH=src python tests/test_golden_pool_costing.py
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.accuracy.surrogate import AccuracySurrogate
from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.core.evaluation import PartitionAwareEvaluator
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor
from repro.nn.resnet_space import ResNetSearchSpace
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pool_costing.json"

#: Golden key -> space factory.
SPACES = {
    "lens-vgg": lambda: SEARCH_SPACES.create("lens-vgg"),
    "resnet-v1": lambda: SEARCH_SPACES.create("resnet-v1"),
    "seq-conv1d": lambda: SEARCH_SPACES.create("seq-conv1d"),
    "resnet-stride-projection": lambda: ResNetSearchSpace(
        downsample="stride", projection_shortcuts=True
    ),
}

POOL_SIZE = 64
DISTINCT = 40


@functools.lru_cache(maxsize=1)
def _predictor():
    return LayerPerformancePredictor.train_for_device(
        jetson_tx2_gpu(), samples_per_type=60, seed=0
    )


def _evaluator(space, engine):
    analyzer = PartitionAnalyzer(
        _predictor(), WirelessChannel.create("wifi", uplink_mbps=3.0)
    )
    return PartitionAwareEvaluator(space, AccuracySurrogate(), analyzer, engine=engine)


def _pool(space, seed):
    """A seeded pool of ``POOL_SIZE`` valid genotypes drawn from ``DISTINCT`` ones."""
    rng = np.random.default_rng(seed)
    distinct = [space.sample(rng) for _ in range(DISTINCT)]
    picks = rng.integers(0, DISTINCT, size=POOL_SIZE)
    return [distinct[pick].tolist() for pick in picks.tolist()]


def _costing(space, genotypes, engine):
    records = _evaluator(space, engine).evaluate_pool(genotypes)
    canonical = json.dumps(
        [meta["evaluation"].to_dict() for _, meta in records],
        sort_keys=True,
        separators=(",", ":"),
    )
    return {
        "objectives": [[float(v).hex() for v in objectives] for objectives, _ in records],
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _runs(space, genotypes):
    return {
        "engine": _costing(space, genotypes, EvaluationEngine()),
        "no_engine": _costing(space, genotypes, None),
    }


def _golden():
    golden = {}
    for index, (key, factory) in enumerate(SPACES.items()):
        space = factory()
        genotypes = _pool(space, seed=1000 + index)
        golden[key] = {
            "genotypes": genotypes,
            "pool": _runs(space, genotypes),
            "first": _runs(space, genotypes[:1]),
        }
    return golden


@functools.lru_cache(maxsize=1)
def _expected():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_pools_hold_duplicates():
    for entry in _expected().values():
        rows = [tuple(row) for row in entry["genotypes"]]
        assert len(rows) == POOL_SIZE > len(set(rows))


@pytest.mark.parametrize("engine", ["engine", "no_engine"])
@pytest.mark.parametrize("pool", ["pool", "first"])
@pytest.mark.parametrize("key", sorted(SPACES))
def test_pool_costing_matches_golden(key, pool, engine):
    entry = _expected()[key]
    genotypes = entry["genotypes"] if pool == "pool" else entry["genotypes"][:1]
    got = _costing(SPACES[key](), genotypes, EvaluationEngine() if engine == "engine" else None)
    assert got == entry[pool][engine]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_golden(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
