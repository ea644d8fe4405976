"""Device profiles for the edge and cloud endpoints.

The paper measures per-layer latency and power on an NVIDIA Jetson TX2 (its
GPU and CPU execution modes) and treats the cloud as having effectively
infinite resources.  Offline we cannot measure real silicon, so a
:class:`DeviceProfile` captures the handful of first-order parameters a
roofline-style layer cost model needs:

* an *effective* compute rate per layer family (FLOP/s actually sustained,
  well below the datasheet peak),
* an effective memory bandwidth (bytes/s) limiting memory-bound layers such
  as large fully-connected layers,
* a fixed per-layer launch/dispatch overhead,
* idle and busy power draw.

The concrete numbers for the TX2 profiles were chosen so that the reference
AlexNet reproduces the *shape* of the paper's Fig. 1 (the three FC layers
account for roughly half of the total latency on the GPU) and Fig. 2 (the
preferred deployment flips between All-Edge, split and All-Cloud as the
uplink throughput changes).  They are calibration targets, not measurements;
see DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.utils.validation import require_non_negative, require_positive

#: Layer families the cost model distinguishes.
LAYER_FAMILIES = ("conv", "fc", "pool", "flatten", "dropout")


@dataclass(frozen=True)
class DeviceProfile:
    """Performance/power description of one execution platform.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"jetson-tx2-gpu"``.
    kind:
        ``"edge"`` or ``"cloud"``.
    compute_rate_flops:
        Effective sustained FLOP/s per layer family.  Families missing from
        the mapping fall back to the ``"default"`` entry.
    memory_bandwidth_bps:
        Effective memory bandwidth in bytes/s (weights + activations traffic).
    layer_overhead_s:
        Fixed per-layer dispatch overhead in seconds.
    idle_power_w:
        Baseline board power in watts.
    busy_power_w:
        Additional power drawn at full compute utilisation, in watts.  The
        simulator scales this with the layer's arithmetic intensity, so
        memory-bound layers draw less than compute-bound ones.
    """

    name: str
    kind: str = "edge"
    compute_rate_flops: Mapping[str, float] = field(
        default_factory=lambda: {"default": 100e9}
    )
    memory_bandwidth_bps: float = 10e9
    layer_overhead_s: float = 50e-6
    idle_power_w: float = 1.5
    busy_power_w: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in ("edge", "cloud"):
            raise ValueError(f"kind must be 'edge' or 'cloud', got {self.kind!r}")
        if "default" not in self.compute_rate_flops:
            raise ValueError("compute_rate_flops must contain a 'default' entry")
        for family, rate in self.compute_rate_flops.items():
            require_positive(rate, f"compute_rate_flops[{family!r}]")
        require_positive(self.memory_bandwidth_bps, "memory_bandwidth_bps")
        require_non_negative(self.layer_overhead_s, "layer_overhead_s")
        require_non_negative(self.idle_power_w, "idle_power_w")
        require_non_negative(self.busy_power_w, "busy_power_w")

    def compute_rate(self, layer_type: str) -> float:
        """Effective FLOP/s for the given layer family."""
        return float(
            self.compute_rate_flops.get(layer_type, self.compute_rate_flops["default"])
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "compute_rate_flops": dict(self.compute_rate_flops),
            "memory_bandwidth_bps": self.memory_bandwidth_bps,
            "layer_overhead_s": self.layer_overhead_s,
            "idle_power_w": self.idle_power_w,
            "busy_power_w": self.busy_power_w,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "DeviceProfile":
        """Inverse of :meth:`to_dict` (used by serialized scenarios)."""
        return cls(
            name=data["name"],
            kind=data.get("kind", "edge"),
            compute_rate_flops={
                str(k): float(v) for k, v in data["compute_rate_flops"].items()
            },
            memory_bandwidth_bps=float(data["memory_bandwidth_bps"]),
            layer_overhead_s=float(data["layer_overhead_s"]),
            idle_power_w=float(data["idle_power_w"]),
            busy_power_w=float(data["busy_power_w"]),
        )


def jetson_tx2_gpu() -> DeviceProfile:
    """TX2-class embedded GPU profile (the paper's GPU/WiFi configuration)."""
    return DeviceProfile(
        name="jetson-tx2-gpu",
        kind="edge",
        compute_rate_flops={
            "default": 120e9,
            "conv": 150e9,
            "fc": 180e9,
            "pool": 40e9,
        },
        memory_bandwidth_bps=10e9,
        layer_overhead_s=150e-6,
        idle_power_w=1.8,
        busy_power_w=9.0,
    )


def jetson_tx2_cpu() -> DeviceProfile:
    """TX2-class embedded CPU profile (the paper's CPU/LTE configuration)."""
    return DeviceProfile(
        name="jetson-tx2-cpu",
        kind="edge",
        compute_rate_flops={
            "default": 14e9,
            "conv": 18e9,
            "fc": 22e9,
            "pool": 7e9,
        },
        memory_bandwidth_bps=4.2e9,
        layer_overhead_s=60e-6,
        idle_power_w=1.2,
        busy_power_w=4.5,
    )


def cloud_server() -> DeviceProfile:
    """Datacentre-class profile.

    The paper neglects cloud latency and energy entirely; this profile exists
    so the partitioning engine can optionally account for a small but nonzero
    cloud compute time in sensitivity studies.
    """
    return DeviceProfile(
        name="cloud-server",
        kind="cloud",
        compute_rate_flops={
            "default": 8e12,
            "conv": 10e12,
            "fc": 6e12,
            "pool": 2e12,
        },
        memory_bandwidth_bps=500e9,
        layer_overhead_s=10e-6,
        idle_power_w=0.0,
        busy_power_w=0.0,
    )


#: Registry of the built-in device profiles, keyed by name.
BUILTIN_DEVICES = {
    "jetson-tx2-gpu": jetson_tx2_gpu,
    "jetson-tx2-cpu": jetson_tx2_cpu,
    "cloud-server": cloud_server,
}


def device_by_name(name: str) -> DeviceProfile:
    """Instantiate a registered device profile by name.

    Lookup goes through the API device registry
    (:data:`repro.api.registry.DEVICES`), so custom devices registered with
    :func:`repro.api.registry.register_device` are found too.  Unknown names
    raise a :class:`KeyError` listing every registered device and, when one
    is close, a spelling suggestion.
    """
    # Imported lazily: the registry module imports this one for the built-ins.
    from repro.api.registry import DEVICES

    return DEVICES.create(name)
