"""Tests for repro.utils.rng."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng


def test_ensure_rng_from_int_is_deterministic():
    a = ensure_rng(42).integers(0, 1000, size=10)
    b = ensure_rng(42).integers(0, 1000, size=10)
    assert np.array_equal(a, b)


def test_ensure_rng_different_seeds_differ():
    a = ensure_rng(1).integers(0, 1_000_000, size=20)
    b = ensure_rng(2).integers(0, 1_000_000, size=20)
    assert not np.array_equal(a, b)


def test_ensure_rng_passthrough_generator():
    gen = np.random.default_rng(7)
    assert ensure_rng(gen) is gen


def test_ensure_rng_none_returns_generator():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_ensure_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        ensure_rng(-1)


def test_ensure_rng_rejects_bad_type():
    with pytest.raises(TypeError):
        ensure_rng("not-a-seed")
