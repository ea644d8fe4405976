"""Per-layer memos: shared layer summaries, the noise key and interned specs.

Every memoised result is compared with the uncached oracle
(``tests/oracles/architecture.py``): layer summaries field by field, cold
(after ``cache_clear()``) and warm; the surrogate's noise seed string and
``error_percent`` bit for bit; decoded layer specs by identity and against
freshly constructed ones.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from oracles import architecture as oracle

from repro.accuracy.surrogate import AccuracySurrogate, layer_noise_key, noise_key
from repro.api.registry import SEARCH_SPACES
from repro.nn.alexnet import build_alexnet
from repro.nn.architecture import SUMMARY_MEMO_SIZE, Architecture, layer_summary
from repro.nn.layers import LAYER_MEMO_SIZE, Conv2D, Dense, Flatten, interned
from repro.nn.resnet_space import ResNetSearchSpace
from repro.nn.vgg import build_vgg16, build_vgg_like
from repro.utils.rng import ensure_rng

SPACES = {
    name: SEARCH_SPACES.create(name) for name in ("lens-vgg", "resnet-v1", "seq-conv1d")
}
SPACES["resnet-stride-projection"] = ResNetSearchSpace(
    downsample="stride", projection_shortcuts=True
)
SURROGATE = AccuracySurrogate()
REFERENCE = oracle.ReferenceSurrogate()


def clear_memos() -> None:
    for memo in (layer_summary, layer_noise_key, interned):
        memo.cache_clear()


def records(summaries):
    # reprs keep value types apart (64 and 64.0), which equality does not
    return [repr(dataclasses.astuple(summary)) for summary in summaries]


def assert_matches_oracle(architecture: Architecture) -> None:
    reference = oracle.UncachedArchitecture.copy_of(architecture)
    assert [repr(layer) for layer in architecture.layers] == [
        repr(layer) for layer in reference.layers
    ]
    assert records(architecture.summarize()) == records(reference.summarize())
    assert noise_key(architecture) == oracle.noise_key(reference)
    assert (
        SURROGATE.error_percent(architecture).hex()
        == REFERENCE.error_percent(reference).hex()
    )


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_memoised_analysis_matches_the_oracle(name, seed):
    space = SPACES[name]
    genotype = space.sample(ensure_rng(seed))
    clear_memos()
    for decode in (space.decode_for_accuracy, space.decode_for_performance):
        cold = decode(genotype)
        assert_matches_oracle(cold)
        warm = decode(genotype)
        assert all(a is b for a, b in zip(cold.layers, warm.layers))
        hits = layer_summary.cache_info().hits
        assert_matches_oracle(warm)
        assert layer_summary.cache_info().hits == hits + len(warm)
        assert all(a is b for a, b in zip(cold.summarize(), warm.summarize()))


@pytest.mark.parametrize(
    "build",
    [
        build_alexnet,
        build_vgg16,
        lambda: build_vgg_like(
            "vgg-tiny", (16, 32), (1, 2), (64,), input_shape=(3, 32, 32),
            kernel_size=5, batch_norm=True,
        ),
    ],
    ids=["alexnet", "vgg16", "vgg-tiny"],
)
def test_reference_models_match_the_oracle(build):
    clear_memos()
    assert_matches_oracle(build())
    assert_matches_oracle(build())


def test_summary_records_keep_their_own_index():
    # the same layer fed the same shape at positions 0 and 1
    layer = Dense(name="fc", units=8)
    alone = Architecture("alone", (8,), [layer])
    behind = Architecture("behind", (8,), [Dense(name="first", units=8), layer])
    assert alone.summarize()[0].index == 0
    assert behind.summarize()[1].index == 1
    assert records(behind.summarize()) == records(oracle.summarize(behind))


def test_skip_edge_check_runs_for_every_architecture():
    layers = [
        Conv2D(name="conv1", out_channels=4),
        Conv2D(name="conv2", out_channels=8),
        Flatten(name="flatten"),
    ]
    Architecture("chain", (3, 8, 8), layers).summarize()
    # every record is a memo hit now; the mismatched edge must still raise
    bad = Architecture("bad-skip", (3, 8, 8), layers, skip_edges=((0, 1),))
    with pytest.raises(ValueError, match="incompatible shapes"):
        bad.summarize()


def test_interned_shares_equal_specs_and_keeps_value_types_apart():
    first = interned(Dense, name="fc", units=10)
    assert interned(Dense, name="fc", units=10) is first
    assert first == Dense(name="fc", units=10)
    flagged = interned(Conv2D, name="conv", batch_norm=True)
    assert interned(Conv2D, name="conv", batch_norm=1) is not flagged
    with pytest.raises(ValueError, match="units"):
        interned(Dense, name="fc", units=0)


def test_memos_are_bounded():
    assert layer_summary.cache_info().maxsize == SUMMARY_MEMO_SIZE
    assert interned.cache_info().maxsize == LAYER_MEMO_SIZE
    assert layer_noise_key.cache_info().maxsize == LAYER_MEMO_SIZE
