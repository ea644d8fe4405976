"""Named deployment scenarios: device + wireless channel + provenance.

A :class:`Scenario` bundles everything LENS treats as *design-time
expectation* — the edge device and the expected wireless conditions
(technology, uplink throughput, round-trip time) — into one named,
serializable object.  Experiments reference scenarios by name
(``"wifi-3mbps/jetson-tx2-gpu"``) through a :class:`ScenarioRegistry`, so a
multi-scenario sweep is a list of strings rather than a pile of constructor
calls.

The default registry :data:`SCENARIOS` ships with

* a technology grid — wifi / lte / 3g at the paper's 3 Mbps expectation,
  crossed with both Jetson TX2 execution modes
  (``"<tech>-3mbps/<device>"``);
* one preset per region of the Table I throughput catalogue, crossed with
  both devices (``"region-<name>-lte/<device>"``), using the region's
  average experienced uplink over LTE.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Union

from repro.api.registry import DEVICES, Registry
from repro.hardware.device import DeviceProfile
from repro.utils.validation import require_finite, require_non_negative, require_positive
from repro.wireless.channel import WirelessChannel
from repro.wireless.power_models import SUPPORTED_TECHNOLOGIES
from repro.wireless.regions import Region, all_regions

#: Devices crossed into the built-in scenario grid.
GRID_DEVICES = ("jetson-tx2-gpu", "jetson-tx2-cpu")

#: The paper's main design-time throughput expectation (Mbps).
PAPER_UPLINK_MBPS = 3.0

#: Name of the paper's main experimental scenario.
DEFAULT_SCENARIO = "wifi-3mbps/jetson-tx2-gpu"


def _slugify(name: str) -> str:
    return "-".join(name.strip().lower().split())


@dataclass(frozen=True)
class Scenario:
    """One named deployment context for a search or analysis run.

    Parameters
    ----------
    name:
        Registry key and display name.
    device:
        Device name resolved through the device registry, or an inline
        :class:`DeviceProfile` for custom hardware.
    wireless_technology:
        Radio technology (``"wifi"`` / ``"lte"`` / ``"3g"``).
    uplink_mbps / round_trip_s:
        Expected upload throughput and round-trip time folded into the
        partition-aware objectives: finite real numbers, held as ``float``
        (``ValueError`` for booleans, non-numbers, NaN and infinities), so a
        scenario and its stored form share one request fingerprint.
    region:
        Optional name of the region the throughput expectation came from.
    description:
        Free-form provenance note.
    """

    name: str
    device: Union[str, DeviceProfile] = "jetson-tx2-gpu"
    wireless_technology: str = "wifi"
    uplink_mbps: float = PAPER_UPLINK_MBPS
    round_trip_s: float = 0.01
    region: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not str(self.name).strip():
            raise ValueError("scenario name must be a non-empty string")
        for name in ("uplink_mbps", "round_trip_s"):
            object.__setattr__(self, name, require_finite(getattr(self, name), name))
        require_positive(self.uplink_mbps, "uplink_mbps")
        require_non_negative(self.round_trip_s, "round_trip_s")

    # ------------------------------------------------------------------ resolution
    @property
    def device_name(self) -> str:
        """Name of the scenario's device."""
        if isinstance(self.device, DeviceProfile):
            return self.device.name
        return str(self.device)

    def resolve_device(self) -> DeviceProfile:
        """The device profile, instantiating registered devices by name."""
        if isinstance(self.device, DeviceProfile):
            return self.device
        return DEVICES.create(str(self.device))

    def build_channel(self) -> WirelessChannel:
        """Wireless channel carrying this scenario's expected conditions."""
        return WirelessChannel.create(
            technology=self.wireless_technology,
            uplink_mbps=self.uplink_mbps,
            round_trip_s=self.round_trip_s,
        )

    def with_uplink(self, uplink_mbps: float, name: Optional[str] = None) -> "Scenario":
        """Copy of this scenario with a different throughput expectation."""
        return replace(self, uplink_mbps=uplink_mbps, name=name or self.name)

    # ------------------------------------------------------------------ construction
    @classmethod
    def from_region(
        cls,
        region: Region,
        device: Union[str, DeviceProfile] = "jetson-tx2-gpu",
        wireless_technology: str = "lte",
        round_trip_s: float = 0.01,
    ) -> "Scenario":
        """Scenario at a region's average experienced upload throughput.

        The generated name carries the technology
        (``region-<name>-<tech>/<device>``) so e.g. WiFi and LTE variants of
        the same region never collide in a registry.
        """
        device_name = device.name if isinstance(device, DeviceProfile) else str(device)
        return cls(
            name=f"region-{_slugify(region.name)}-{wireless_technology}/{device_name}",
            device=device,
            wireless_technology=wireless_technology,
            uplink_mbps=region.avg_uplink_mbps,
            round_trip_s=round_trip_s,
            region=region.name,
            description=f"{region.name} average uplink ({region.source})",
        )

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict[str, Any]:
        device: Any = self.device
        if isinstance(device, DeviceProfile):
            device = device.to_dict()
        return {
            "name": self.name,
            "device": device,
            "wireless_technology": self.wireless_technology,
            "uplink_mbps": self.uplink_mbps,
            "round_trip_s": self.round_trip_s,
            "region": self.region,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        device = data["device"]
        if isinstance(device, dict):
            device = DeviceProfile.from_dict(device)
        return cls(
            name=data["name"],
            device=device,
            wireless_technology=data.get("wireless_technology", "wifi"),
            uplink_mbps=data.get("uplink_mbps", PAPER_UPLINK_MBPS),
            round_trip_s=data.get("round_trip_s", 0.01),
            region=data.get("region"),
            description=data.get("description", ""),
        )


class ScenarioRegistry(Registry):
    """Registry holding :class:`Scenario` instances directly.

    ``register(scenario)`` keys the scenario by its own name; ``get(name)``
    returns the scenario object (scenarios are frozen, so no factory
    indirection is needed).
    """

    def __init__(self, entries: Optional[Dict[str, Scenario]] = None):
        super().__init__("scenario", entries)

    def add(self, scenario: Scenario, *, overwrite: bool = False) -> Scenario:
        """Register ``scenario`` under its own name and return it."""
        if not isinstance(scenario, Scenario):
            raise TypeError(f"expected a Scenario, got {type(scenario)!r}")
        self.register(scenario.name, scenario, overwrite=overwrite)
        return scenario

    def resolve(self, scenario: Union[str, Scenario]) -> Scenario:
        """Return ``scenario`` itself, or look it up when given a name."""
        if isinstance(scenario, Scenario):
            return scenario
        return self.get(scenario)

    def scenarios(self) -> List[Scenario]:
        """Every registered scenario, sorted by name."""
        return [scenario for _, scenario in self.items()]


def builtin_scenarios() -> List[Scenario]:
    """The built-in scenario catalogue (technology grid + regional presets)."""
    catalogue: List[Scenario] = []
    for technology in SUPPORTED_TECHNOLOGIES:
        for device in GRID_DEVICES:
            catalogue.append(
                Scenario(
                    name=f"{technology}-3mbps/{device}",
                    device=device,
                    wireless_technology=technology,
                    uplink_mbps=PAPER_UPLINK_MBPS,
                    description=(
                        f"{technology} at the paper's {PAPER_UPLINK_MBPS:g} Mbps "
                        "design-time expectation"
                    ),
                )
            )
    for region in all_regions():
        for device in GRID_DEVICES:
            catalogue.append(Scenario.from_region(region, device=device))
    return catalogue


#: Default scenario registry, pre-populated with the built-ins.
SCENARIOS = ScenarioRegistry()
for _scenario in builtin_scenarios():
    SCENARIOS.add(_scenario)
del _scenario


def scenario_by_name(name: str) -> Scenario:
    """Look up a scenario in the default registry."""
    return SCENARIOS.get(name)
