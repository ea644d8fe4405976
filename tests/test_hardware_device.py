"""Tests for repro.hardware.device."""

import pytest

from repro.hardware.device import (
    BUILTIN_DEVICES,
    DeviceProfile,
    cloud_server,
    device_by_name,
    jetson_tx2_cpu,
    jetson_tx2_gpu,
)


def test_builtin_registry_contains_expected_devices():
    assert set(BUILTIN_DEVICES) == {"jetson-tx2-gpu", "jetson-tx2-cpu", "cloud-server"}


def test_device_by_name_and_unknown():
    assert device_by_name("jetson-tx2-gpu").name == "jetson-tx2-gpu"
    with pytest.raises(KeyError):
        device_by_name("raspberry-pi")


def test_gpu_is_faster_than_cpu():
    gpu, cpu = jetson_tx2_gpu(), jetson_tx2_cpu()
    assert gpu.compute_rate("conv") > cpu.compute_rate("conv")
    assert gpu.memory_bandwidth_bps > cpu.memory_bandwidth_bps


def test_cloud_is_much_faster_than_edge():
    cloud, gpu = cloud_server(), jetson_tx2_gpu()
    assert cloud.compute_rate("conv") > 10 * gpu.compute_rate("conv")
    assert cloud.kind == "cloud"


def test_compute_rate_falls_back_to_default():
    device = DeviceProfile(name="x", compute_rate_flops={"default": 1e9, "conv": 2e9})
    assert device.compute_rate("conv") == 2e9
    assert device.compute_rate("fc") == 1e9


def test_requires_default_rate():
    with pytest.raises(ValueError, match="default"):
        DeviceProfile(name="x", compute_rate_flops={"conv": 1e9})


def test_rejects_invalid_kind_and_rates():
    with pytest.raises(ValueError):
        DeviceProfile(name="x", kind="fog")
    with pytest.raises(ValueError):
        DeviceProfile(name="x", compute_rate_flops={"default": -1.0})


def test_to_dict_contains_all_fields():
    data = jetson_tx2_gpu().to_dict()
    assert data["name"] == "jetson-tx2-gpu"
    assert data["kind"] == "edge"
    assert "conv" in data["compute_rate_flops"]
    assert data["busy_power_w"] > 0
