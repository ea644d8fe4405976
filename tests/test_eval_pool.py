"""Pool evaluation against the per-candidate oracle (``tests/oracles/evaluation.py``).

``PartitionAwareEvaluator.evaluate_pool`` validates a pool once, reads each
genotype's layer stack and name once as layer-table rows and estimates the
pool's errors from gathers over those rows.  For pools of 1-64 genotypes of
every built-in space and the stride/projection ResNet — with duplicates,
and rows given as lists, ``int32`` and ``int64`` arrays — costed under the
noiseless and the trained predictor, with and without an engine, its
objective vectors, errors, names, layers and skip edges must equal the
per-candidate path bit for bit, a bad row must raise the error ``decode``
raises for it, and a model without a pool method must see its
``error_percent`` calls in pool order.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import architecture as architecture_oracle
from oracles import evaluation as oracle

from repro.accuracy.surrogate import AccuracyModel, AccuracySurrogate
from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.core.evaluation import PartitionAwareEvaluator
from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import LayerPerformancePredictor, OracleLayerPredictor
from repro.nn.alexnet import build_alexnet
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.vgg import build_vgg16
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel

SPACES = {name: SEARCH_SPACES.create(name) for name in ("lens-vgg", "resnet-v1", "seq-conv1d")}
SPACES["resnet-stride-projection"] = ResNetSearchSpace(
    downsample="stride", projection_shortcuts=True
)
SPACE_NAMES = tuple(SPACES)

#: How a pool may hand over a row.
ROW_FORMS = {
    "list": lambda row: row.tolist(),
    "int32": lambda row: row.astype(np.int32),
    "int64": lambda row: row.astype(np.int64),
}


@functools.lru_cache(maxsize=None)
def _analyzer(trained=False):
    device = jetson_tx2_gpu()
    predictor = (
        LayerPerformancePredictor.train_for_device(device, samples_per_type=60, seed=0)
        if trained
        else OracleLayerPredictor(device)
    )
    return PartitionAnalyzer(predictor, WirelessChannel.create("wifi", uplink_mbps=3.0))


def _evaluator(name, model=None, trained=False, engine=None):
    return PartitionAwareEvaluator(
        SPACES[name], model or AccuracySurrogate(), _analyzer(trained), engine=engine
    )


@st.composite
def pools(draw, max_size=64):
    """``(space name, genotypes)``: a pool of valid rows in mixed forms."""
    name = draw(st.sampled_from(SPACE_NAMES))
    size = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = [SPACES[name].sample(rng) for _ in range(draw(st.integers(1, size)))]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=size, max_size=size))
    forms = draw(st.lists(st.sampled_from(sorted(ROW_FORMS)), min_size=size, max_size=size))
    return name, [ROW_FORMS[form](distinct[pick]) for pick, form in zip(picks, forms)]


def _outputs(records):
    """Objective vectors as bytes and records as JSON text."""
    objectives = np.array([objectives for objectives, _ in records]).tobytes()
    return objectives, [json.dumps(meta["evaluation"].to_dict()) for _, meta in records]


def _layers(architecture):
    # reprs keep value types apart (64 and 64.0), which equality does not
    return [repr(layer) for layer in architecture.layers]


@pytest.mark.parametrize("engine", [False, True], ids=["no-engine", "engine"])
@pytest.mark.parametrize("trained", [False, True], ids=["oracle", "trained"])
@settings(max_examples=30, deadline=None)
@given(pool=pools())
def test_evaluate_pool_matches_the_per_candidate_oracle(trained, engine, pool):
    name, genotypes = pool
    space = SPACES[name]

    def evaluator():
        return _evaluator(name, trained=trained, engine=EvaluationEngine() if engine else None)

    got = evaluator().evaluate_pool(genotypes)
    want = oracle.evaluate_pool(evaluator(), genotypes)
    assert _outputs(got) == _outputs(want)

    decoded = space.decode_pool(genotypes)
    assert decoded.genotypes.dtype == np.int64
    assert decoded.genotypes.tolist() == [np.asarray(g).tolist() for g in genotypes]
    for genotype, accuracy, performance in zip(
        genotypes, decoded.accuracy, decoded.performance
    ):
        for architecture, reference, shape in (
            (accuracy, space.decode_for_accuracy(genotype), space.accuracy_input_shape),
            (performance, space.decode_for_performance(genotype), space.performance_input_shape),
        ):
            assert architecture.name == reference.name == space.candidate_name(genotype)
            assert architecture.input_shape == reference.input_shape == tuple(shape)
            assert _layers(architecture) == _layers(reference)
            assert architecture.skip_edges == reference.skip_edges
            assert architecture == reference and hash(architecture) == hash(reference)
        assert accuracy.summarize() != performance.summarize()


def _bad_rows(space):
    """Malformed rows, plus a constraint-violating one where the space has any."""
    valid = space.sample(0)
    high = valid.copy()
    high[-1] = space.encoding.cardinalities[-1]
    rows = {
        "short": valid[:-1],
        "high": high,
        "negative": np.where(np.arange(space.num_genes) == 0, -1, valid),
        "fraction": [0.5] + valid.tolist()[1:],
    }
    zeros = np.zeros(space.num_genes, dtype=np.int64)
    if not space.is_valid(zeros):
        rows["constraint"] = zeros
    return rows


@settings(max_examples=30, deadline=None)
@given(pool=pools(max_size=16), data=st.data())
def test_a_bad_row_raises_the_error_decode_raises(pool, data):
    name, genotypes = pool
    space = SPACES[name]
    rows = _bad_rows(space)
    bad = rows[data.draw(st.sampled_from(sorted(rows)))]
    genotypes.insert(data.draw(st.integers(0, len(genotypes))), bad)
    with pytest.raises(ValueError) as expected:
        space.decode(bad)
    with pytest.raises(ValueError) as raised:
        space.decode_pool(genotypes)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(ValueError) as raised:
        _evaluator(name).evaluate_pool(genotypes)
    assert str(raised.value) == str(expected.value)


class RecordingModel(AccuracyModel):
    """An accuracy model without a pool method that records its calls."""

    def __init__(self):
        self.calls = []

    def error_percent(self, architecture):
        self.calls.append((architecture.name, architecture.input_shape))
        return float(len(self.calls))


@settings(max_examples=15, deadline=None)
@given(pool=pools(max_size=16))
def test_a_model_without_a_pool_method_sees_the_pool_in_order(pool):
    name, genotypes = pool
    space = SPACES[name]
    model, reference = RecordingModel(), RecordingModel()
    got = _evaluator(name, model).evaluate_pool(genotypes)
    want = oracle.evaluate_pool(_evaluator(name, reference), genotypes)
    assert model.calls == reference.calls == [
        (space.candidate_name(g), tuple(space.accuracy_input_shape)) for g in genotypes
    ]
    assert [meta["evaluation"].error_percent for _, meta in got] == list(
        range(1, len(genotypes) + 1)
    )
    assert _outputs(got) == _outputs(want)


@settings(max_examples=20, deadline=None)
@given(
    picks=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=24),
    noise_std=st.sampled_from([0.0, 1.2]),
)
def test_error_percent_pool_matches_per_row_statistics_on_mixed_pools(picks, noise_std):
    """Rows of every length and layer family in one pool, reference models too."""
    architectures = [build_alexnet(), build_vgg16()]
    for pick in picks:
        space = SPACES[SPACE_NAMES[pick % len(SPACE_NAMES)]]
        decode = (space.decode_for_accuracy, space.decode_for_performance)[pick % 2]
        architectures.append(decode(space.sample(pick)))
    surrogate = AccuracySurrogate(noise_std=noise_std)
    pooled = surrogate.error_percent_pool(architectures)
    assert [error.hex() for error in pooled] == [
        architecture_oracle.surrogate_error(surrogate, architecture).hex()
        for architecture in architectures
    ]


def test_an_accuracy_model_must_implement_the_interface():
    class DuckModel:
        def error_percent(self, architecture):
            return 0.0

    with pytest.raises(TypeError, match="AccuracyModel"):
        PartitionAwareEvaluator(SPACES["lens-vgg"], DuckModel(), _analyzer())
