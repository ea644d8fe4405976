"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    require_between,
    require_finite,
    require_in,
    require_integral,
    require_non_negative,
    require_positive,
)


@pytest.mark.parametrize("value", [0, 10, 10.0, -3.0, np.int64(7), np.float64(12.0)])
def test_require_integral_returns_whole_numbers_as_ints(value):
    result = require_integral(value, "x")
    assert type(result) is int and result == value


@pytest.mark.parametrize(
    "value", [40.9, 0.5, float("nan"), float("inf"), True, "10", None, np.float64(2.5)]
)
def test_require_integral_rejects_everything_else(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        require_integral(value, "x")


@pytest.mark.parametrize("value", [0, -3, 2.5, np.int64(7), np.float64(-0.5)])
def test_require_finite_returns_finite_numbers_as_floats(value):
    result = require_finite(value, "x")
    assert type(result) is float and result == value


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        pytest.param(10**400, id="10**400"),
        True,
        "1.0",
        None,
    ],
    ids=repr,
)
def test_require_finite_rejects_everything_else(value):
    with pytest.raises(ValueError, match="x must be a finite number"):
        require_finite(value, "x")


def test_require_positive_accepts_positive():
    assert require_positive(3.5, "x") == 3.5


@pytest.mark.parametrize("value", [0, -1, -0.001])
def test_require_positive_rejects_non_positive(value):
    with pytest.raises(ValueError, match="x must be positive"):
        require_positive(value, "x")


def test_require_non_negative():
    assert require_non_negative(0, "x") == 0
    with pytest.raises(ValueError):
        require_non_negative(-1e-9, "x")
    with pytest.raises(ValueError, match="x must be non-negative, got nan"):
        require_non_negative(float("nan"), "x")


def test_require_between():
    assert require_between(0.5, 0, 1, "x") == 0.5
    with pytest.raises(ValueError):
        require_between(1.5, 0, 1, "x")


def test_require_in():
    assert require_in("a", ("a", "b"), "x") == "a"
    with pytest.raises(ValueError):
        require_in("c", ("a", "b"), "x")
