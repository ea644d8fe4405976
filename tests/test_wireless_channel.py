"""Tests for the wireless channel cost model (paper Eq. 3-6).

The partitioner's array costing evaluates the equations for a whole pool;
their scalar form, one transfer at a time, is the oracle
``tests/oracles/partition.py``.  These tests pin the oracle to the closed
forms and the array path's All-Cloud and split options to the oracle.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st
from oracles import partition as oracle

from repro.hardware.device import jetson_tx2_gpu
from repro.hardware.predictors import OracleLayerPredictor
from repro.nn.architecture import Architecture
from repro.nn.layers import Dense
from repro.partition.partitioner import PartitionAnalyzer
from repro.wireless.channel import WirelessChannel


def costed(channel, num_bytes, hidden_units=None):
    """The array path's evaluation of a model with a ``num_bytes``-byte input.

    With ``hidden_units`` the model has a hidden dense layer whose output
    (4 bytes a unit) is its one split point.
    """
    layers = [Dense(name="out", units=2)]
    if hidden_units is not None:
        layers.insert(0, Dense(name="hidden", units=hidden_units))
    architecture = Architecture("upload", (num_bytes,), layers)
    analyzer = PartitionAnalyzer(OracleLayerPredictor(jetson_tx2_gpu()), channel)
    return analyzer.evaluate(architecture)


def test_transmission_latency_matches_equation_5():
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.02)
    # 147 kB over 3 Mbps
    num_bytes = 224 * 224 * 3
    expected = num_bytes * 8 / 3e6
    assert oracle.transmission_latency_s(channel, num_bytes) == pytest.approx(expected)
    all_cloud = costed(channel, num_bytes).all_cloud
    assert all_cloud.comm_latency_s == pytest.approx(expected + 0.02)


def test_communication_latency_adds_round_trip():
    channel = WirelessChannel.create("wifi", uplink_mbps=10.0, round_trip_s=0.05)
    assert oracle.communication_latency_s(channel, 1000) == pytest.approx(
        oracle.transmission_latency_s(channel, 1000) + 0.05
    )
    all_cloud = costed(channel, 1000).all_cloud
    assert all_cloud.latency_s == oracle.communication_latency_s(channel, 1000)


def test_energy_matches_equation_6():
    channel = WirelessChannel.create("lte", uplink_mbps=5.0)
    num_bytes = 50_000
    expected = channel.transmission_power_w() * oracle.transmission_latency_s(
        channel, num_bytes
    )
    assert oracle.communication_energy_j(channel, num_bytes) == pytest.approx(expected)
    assert channel.transmission_power_w() == pytest.approx(0.43839 * 5 + 1.28804)
    all_cloud = costed(channel, num_bytes).all_cloud
    assert all_cloud.energy_j == oracle.communication_energy_j(channel, num_bytes)


def test_cost_bundles_all_terms():
    channel = WirelessChannel.create("wifi", uplink_mbps=8.0, round_trip_s=0.01)
    cost = oracle.cost(channel, 10_000)
    assert cost.latency_s == pytest.approx(cost.transmission_latency_s + 0.01)
    assert cost.energy_j == pytest.approx(oracle.transmission_energy_j(channel, 10_000))
    # a split option's transfer is the same cost of its cut tensor
    (split,) = costed(channel, 10_000, hidden_units=100).options[2:]
    assert split.transferred_bytes == 400.0
    assert split.comm_latency_s == oracle.cost(channel, 400.0).latency_s
    assert split.comm_energy_j == oracle.cost(channel, 400.0).energy_j


def test_zero_bytes_costs_only_round_trip():
    channel = WirelessChannel.create("wifi", uplink_mbps=8.0, round_trip_s=0.01)
    cost = oracle.cost(channel, 0)
    assert cost.transmission_latency_s == 0.0
    assert cost.energy_j == 0.0
    assert cost.latency_s == pytest.approx(0.01)


def test_with_uplink_changes_only_throughput():
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0, round_trip_s=0.02)
    faster = dataclasses.replace(channel, uplink_mbps=30.0)
    assert faster.uplink_mbps == 30.0
    assert faster.round_trip_s == 0.02
    assert faster.technology == "wifi"
    assert oracle.transmission_latency_s(faster, 1000) < oracle.transmission_latency_s(
        channel, 1000
    )
    assert costed(faster, 1000).all_cloud.latency_s < costed(channel, 1000).all_cloud.latency_s


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WirelessChannel.create("wifi", uplink_mbps=0.0)
    with pytest.raises(ValueError):
        WirelessChannel.create("wifi", uplink_mbps=1.0, round_trip_s=-0.1)
    channel = WirelessChannel.create("wifi", uplink_mbps=1.0)
    with pytest.raises(ValueError):
        oracle.transmission_latency_s(channel, -1)


@pytest.mark.parametrize("value", [math.inf, True, "3.0", None], ids=repr)
@pytest.mark.parametrize("field", ["uplink_mbps", "round_trip_s"])
def test_parameters_must_be_finite_numbers(field, value):
    """An infinite uplink made every transferring option's energy NaN."""
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        WirelessChannel.create("wifi", **{"uplink_mbps": 3.0, field: value})
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0)
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        dataclasses.replace(channel, **{field: value})


def test_integral_parameters_are_held_as_floats():
    channel = WirelessChannel.create("wifi", uplink_mbps=3, round_trip_s=0)
    assert type(channel.uplink_mbps) is float and channel.uplink_mbps == 3.0
    assert type(channel.round_trip_s) is float and channel.round_trip_s == 0.0


def test_to_dict_round_trip_fields():
    data = WirelessChannel.create("lte", 7.5, 0.015).to_dict()
    assert data["technology"] == "lte"
    assert data["uplink_mbps"] == 7.5
    assert data["round_trip_s"] == 0.015


@settings(max_examples=40, deadline=None)
@given(
    tu=st.floats(min_value=0.1, max_value=100.0),
    num_bytes=st.integers(min_value=1, max_value=10_000_000),
)
def test_property_latency_decreases_with_throughput_and_increases_with_size(tu, num_bytes):
    slow = WirelessChannel.create("wifi", uplink_mbps=tu)
    fast = WirelessChannel.create("wifi", uplink_mbps=tu * 2)
    assert oracle.transmission_latency_s(fast, num_bytes) < oracle.transmission_latency_s(
        slow, num_bytes
    )
    assert oracle.transmission_latency_s(slow, num_bytes * 2) > oracle.transmission_latency_s(
        slow, num_bytes
    )
