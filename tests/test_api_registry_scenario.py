"""Tests for repro.api.registry and repro.api.scenario."""

import pytest

from repro.api.registry import (
    ACQUISITIONS,
    DEVICES,
    WIRELESS_TECHNOLOGIES,
    Registry,
    RegistryError,
    register_device,
)
from repro.api.scenario import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    Scenario,
    ScenarioRegistry,
    builtin_scenarios,
    scenario_by_name,
)
from repro.api.envelopes import SearchRequest
from repro.hardware.device import DeviceProfile, device_by_name


class TestRegistry:
    def test_register_get_create(self):
        registry = Registry("widget")
        registry.register("a", lambda: 41)
        assert registry.get("a")() == 41
        assert registry.create("a") == 41
        assert "a" in registry and len(registry) == 1

    def test_register_as_decorator(self):
        registry = Registry("widget")

        @registry.register("thing")
        def make_thing():
            return "thing!"

        assert registry.create("thing") == "thing!"

    def test_duplicate_registration_requires_overwrite(self):
        registry = Registry("widget", {"a": 1})
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        registry.register("a", 2, overwrite=True)
        assert registry.get("a") == 2

    def test_unknown_name_lists_registered_and_suggests(self):
        registry = Registry("widget", {"alpha": 1, "beta": 2})
        with pytest.raises(KeyError) as excinfo:
            registry.get("alpah")
        message = str(excinfo.value)
        assert "unknown widget 'alpah'" in message
        assert "alpha" in message and "beta" in message
        assert "Did you mean 'alpha'?" in message

    def test_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            Registry("widget").get("missing")
        assert issubclass(RegistryError, KeyError)


class TestBuiltinRegistries:
    def test_devices_contains_builtins(self):
        assert {"jetson-tx2-gpu", "jetson-tx2-cpu", "cloud-server"} <= set(
            DEVICES.names()
        )
        assert DEVICES.create("jetson-tx2-gpu").name == "jetson-tx2-gpu"

    def test_device_by_name_routes_through_registry(self):
        with pytest.raises(KeyError) as excinfo:
            device_by_name("jetson-tx2-gpo")
        message = str(excinfo.value)
        assert "jetson-tx2-gpu" in message and "jetson-tx2-cpu" in message
        assert "Did you mean" in message

    def test_registered_custom_device_is_found_by_name(self):
        profile = DeviceProfile(name="test-custom-npu", compute_rate_flops={"default": 1e9})
        register_device(profile, overwrite=True)
        try:
            assert device_by_name("test-custom-npu") is profile
        finally:
            DEVICES.unregister("test-custom-npu")

    def test_wireless_technologies(self):
        assert set(WIRELESS_TECHNOLOGIES.names()) == {"wifi", "lte", "3g"}
        model = WIRELESS_TECHNOLOGIES.create("wifi")
        assert model.technology == "wifi"

    def test_acquisitions(self):
        assert set(ACQUISITIONS.names()) == {"ts", "ucb", "mean", "random", "epdc"}


class TestScenario:
    def test_builtin_grid_and_regional_presets_registered(self):
        names = set(SCENARIOS.names())
        for technology in ("wifi", "lte", "3g"):
            for device in ("jetson-tx2-gpu", "jetson-tx2-cpu"):
                assert f"{technology}-3mbps/{device}" in names
        assert "region-south-korea-lte/jetson-tx2-gpu" in names
        assert "region-afghanistan-lte/jetson-tx2-cpu" in names
        assert len(builtin_scenarios()) == len(names)

    def test_default_scenario_matches_paper_configuration(self):
        scenario = scenario_by_name(DEFAULT_SCENARIO)
        assert scenario.wireless_technology == "wifi"
        assert scenario.uplink_mbps == 3.0
        assert scenario.resolve_device().name == "jetson-tx2-gpu"
        channel = scenario.build_channel()
        assert channel.technology == "wifi" and channel.uplink_mbps == 3.0

    def test_regional_preset_uses_region_throughput(self):
        scenario = scenario_by_name("region-south-korea-lte/jetson-tx2-gpu")
        assert scenario.uplink_mbps == pytest.approx(16.1)
        assert scenario.region == "South Korea"
        assert scenario.wireless_technology == "lte"

    def test_from_region_names_carry_the_technology(self):
        from repro.wireless.regions import region_by_name

        region = region_by_name("USA")
        wifi = Scenario.from_region(region, wireless_technology="wifi")
        assert wifi.name == "region-usa-wifi/jetson-tx2-gpu"
        assert wifi.name not in SCENARIOS  # no collision with the LTE preset

    def test_round_trip_with_named_device(self):
        scenario = scenario_by_name(DEFAULT_SCENARIO)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_with_inline_device_profile(self):
        profile = DeviceProfile(name="inline-npu", compute_rate_flops={"default": 2e9})
        scenario = Scenario(name="inline/test", device=profile, uplink_mbps=5.0)
        restored = Scenario.from_dict(scenario.to_dict())
        assert restored.resolve_device() == profile
        assert restored.name == "inline/test"

    def test_registry_resolve_accepts_names_and_objects(self):
        registry = ScenarioRegistry()
        scenario = registry.add(Scenario(name="mine", uplink_mbps=1.0))
        assert registry.resolve("mine") is scenario
        assert registry.resolve(scenario) is scenario
        with pytest.raises(KeyError):
            registry.resolve("theirs")

    def test_with_uplink_copies(self):
        base = scenario_by_name(DEFAULT_SCENARIO)
        faster = base.with_uplink(30.0, name="fast")
        assert faster.uplink_mbps == 30.0 and faster.name == "fast"
        assert base.uplink_mbps == 3.0

    @pytest.mark.parametrize("value", [float("inf"), True, "3.0"], ids=repr)
    @pytest.mark.parametrize("field", ["uplink_mbps", "round_trip_s"])
    def test_reals_must_be_finite_numbers(self, field, value):
        """An infinite uplink quarantined every evaluation of a search."""
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            Scenario(name="x", **{field: value})
        payload = Scenario(name="x").to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            Scenario.from_dict(payload)

    def test_inline_scenario_keeps_its_fingerprint_through_its_envelope(self):
        """An integral uplink used to fingerprint apart from its stored form."""
        scenario = Scenario(name="inline/int", uplink_mbps=5, round_trip_s=0)
        assert type(scenario.uplink_mbps) is float and type(scenario.round_trip_s) is float
        request = SearchRequest(scenario=scenario)
        loaded = SearchRequest.from_dict(request.to_dict())
        assert loaded.fingerprint() == request.fingerprint()

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError):
            Scenario(name=" ", uplink_mbps=3.0)
        with pytest.raises(ValueError):
            Scenario(name="x", uplink_mbps=0.0)
