"""Tests for repro.nn.architecture."""

import numpy as np
import pytest

from repro.nn.architecture import Architecture
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D


def tiny_architecture() -> Architecture:
    return Architecture(
        "tiny",
        (3, 8, 8),
        [
            Conv2D(name="conv1", out_channels=4, kernel_size=3),
            MaxPool2D(name="pool1", pool_size=2),
            Flatten(name="flatten"),
            Dense(name="fc", units=10, activation="softmax"),
        ],
    )


def test_requires_at_least_one_layer():
    with pytest.raises(ValueError):
        Architecture("empty", (3, 8, 8), [])


def test_duplicate_layer_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Architecture(
            "dup",
            (3, 8, 8),
            [Conv2D(name="conv"), Conv2D(name="conv")],
        )


def test_shape_inference_chains_layers():
    arch = tiny_architecture()
    shapes = [s.output_shape for s in arch.summarize()]
    assert shapes == [(4, 8, 8), (4, 4, 4), (64,), (10,)]
    assert arch.output_shape == (10,)


def test_summaries_are_cached():
    arch = tiny_architecture()
    assert arch.summarize() is arch.summarize()


def test_totals_are_sums_of_layers():
    arch = tiny_architecture()
    summaries = arch.summarize()
    assert arch.total_params == sum(s.params for s in summaries)
    assert arch.total_macs == sum(s.macs for s in summaries)


def test_depth_counts_parameterised_layers():
    arch = tiny_architecture()
    assert arch.depth == 2
    assert arch.count_layers("pool") == 1


def test_input_bytes_default_is_one_byte_per_pixel():
    arch = tiny_architecture()
    assert arch.input_bytes == 3 * 8 * 8


def test_input_bytes_per_element_configurable():
    arch = Architecture(
        "float-input", (3, 8, 8), [Dense(name="fc", units=2)], input_bytes_per_element=4
    )
    assert arch.input_bytes == 3 * 8 * 8 * 4


def test_iteration_and_indexing():
    arch = tiny_architecture()
    assert len(arch) == 4
    assert arch[0].name == "conv1"
    assert [layer.name for layer in arch] == ["conv1", "pool1", "flatten", "fc"]


def test_equality_and_hash():
    a = tiny_architecture()
    b = tiny_architecture()
    assert a == b
    assert hash(a) == hash(b)
    c = Architecture("other", (3, 8, 8), list(a.layers), input_bytes_per_element=4)
    assert a != c


def test_to_dict_round_trip():
    arch = tiny_architecture()
    rebuilt = Architecture.from_dict(arch.to_dict())
    assert rebuilt == arch
    assert rebuilt.name == "tiny"


def test_describe_mentions_every_layer():
    description = tiny_architecture().describe()
    for name in ("conv1", "pool1", "flatten", "fc"):
        assert name in description


def test_layer_summary_to_dict_contains_key_fields():
    summary = tiny_architecture().summarize()[0]
    data = summary.to_dict()
    assert data["name"] == "conv1"
    assert data["layer_type"] == "conv"
    assert data["output_shape"] == [4, 8, 8]
    assert data["macs"] == summary.macs
