"""Tests for repro.utils.units."""

import pytest

from repro.utils import units


def test_kilobyte_conversions():
    assert units.bytes_to_kilobytes(2048) == 2.0


def test_mbps_conversion_uses_decimal_megabits():
    # 8 Mbps == 1e6 bytes per second.
    assert units.mbps_to_bytes_per_second(8.0) == pytest.approx(1e6)


def test_alexnet_input_transfer_time_matches_hand_calculation():
    # 147 kB at 3 Mbps should take roughly 0.4 seconds.
    input_bytes = 224 * 224 * 3
    seconds = input_bytes / units.mbps_to_bytes_per_second(3.0)
    assert seconds == pytest.approx(0.4014, abs=1e-3)


def test_power_conversions():
    assert units.milliwatts_to_watts(1288.04) == pytest.approx(1.28804)
