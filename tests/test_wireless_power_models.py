"""Tests for the Huang et al. radio power models."""

import pytest
from hypothesis import given, strategies as st
from oracles import partition as oracle

from repro.wireless.channel import WirelessChannel
from repro.wireless.power_models import (
    HUANG_COEFFICIENTS_MILLIWATTS,
    SUPPORTED_TECHNOLOGIES,
    RadioPowerModel,
)


def test_supported_technologies():
    assert set(SUPPORTED_TECHNOLOGIES) == {"lte", "wifi", "3g"}


def test_lte_coefficients_match_published_values():
    model = RadioPowerModel.for_technology("lte")
    assert model.alpha_w_per_mbps == pytest.approx(0.43839)
    assert model.beta_w == pytest.approx(1.28804)


def test_wifi_coefficients_match_published_values():
    model = RadioPowerModel.for_technology("wifi")
    assert model.alpha_w_per_mbps == pytest.approx(0.28317)
    assert model.beta_w == pytest.approx(0.13286)


def test_power_is_linear_in_throughput():
    model = RadioPowerModel.for_technology("lte")
    assert model.power_w(10.0) == pytest.approx(0.43839 * 10 + 1.28804)


def test_technology_name_is_case_insensitive():
    assert RadioPowerModel.for_technology("WiFi").technology == "wifi"


def test_unknown_technology_rejected():
    with pytest.raises(ValueError):
        RadioPowerModel.for_technology("5g")


def test_lte_draws_more_power_than_wifi_at_same_rate():
    lte = RadioPowerModel.for_technology("lte")
    wifi = RadioPowerModel.for_technology("wifi")
    for tu in (0.5, 3.0, 10.0, 30.0):
        assert lte.power_w(tu) > wifi.power_w(tu)


def test_transmission_energy():
    """Half a second at 3 Mbps (187.5 kB) costs half a second of P_Tx(3 Mbps)."""
    model = RadioPowerModel.for_technology("wifi")
    channel = WirelessChannel(model, uplink_mbps=3.0)
    assert oracle.transmission_energy_j(channel, 187_500) == pytest.approx(
        model.power_w(3.0) * 0.5
    )


def test_negative_inputs_rejected():
    model = RadioPowerModel.for_technology("wifi")
    with pytest.raises(ValueError):
        model.power_w(-1.0)
    with pytest.raises(ValueError):
        RadioPowerModel("x", alpha_w_per_mbps=-0.1, beta_w=0.0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, "0.1"], ids=repr)
def test_coefficients_must_be_finite_numbers(bad):
    with pytest.raises(ValueError, match="alpha_w_per_mbps"):
        RadioPowerModel("t", alpha_w_per_mbps=bad, beta_w=0.1)
    with pytest.raises(ValueError, match="beta_w"):
        RadioPowerModel("t", alpha_w_per_mbps=0.1, beta_w=bad)


def test_coefficients_are_held_as_floats():
    model = RadioPowerModel("t", alpha_w_per_mbps=1, beta_w=0)
    assert type(model.alpha_w_per_mbps) is float and type(model.beta_w) is float
    assert model.to_dict() == {"technology": "t", "alpha_w_per_mbps": 1.0, "beta_w": 0.0}


def test_to_dict():
    data = RadioPowerModel.for_technology("3g").to_dict()
    assert data["technology"] == "3g"
    assert data["alpha_w_per_mbps"] == pytest.approx(0.86898)


@given(st.floats(min_value=0.01, max_value=100.0))
def test_property_power_increases_with_throughput(tu):
    model = RadioPowerModel.for_technology("lte")
    assert model.power_w(tu * 1.5) > model.power_w(tu)
