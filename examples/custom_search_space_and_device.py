"""Bring your own search space, device profile and wireless expectation.

LENS is not tied to the paper's VGG-derived space or to the Jetson TX2: the
search space, the edge-device profile, the radio technology and the accuracy
model are all pluggable.  This example

1. defines a narrower search space (3 blocks, small filter counts) aimed at a
   weaker edge device, and registers it by name so request envelopes, campaign
   grids and the CLI can all address it as ``search_space="lens-narrow"``;
2. defines a custom device profile (a microcontroller-class accelerator);
3. trains the per-layer performance predictors for that device from simulated
   profiling data;
4. runs LENS under an LTE expectation and prints the recommended designs.

Run with:  python examples/custom_search_space_and_device.py
"""

from __future__ import annotations

from repro import (
    LensSearchSpace,
    Scenario,
    SearchRequest,
    register_search_space,
    run_search,
)
from repro.hardware.device import DeviceProfile
from repro.hardware.predictors import LayerPerformancePredictor
from repro.utils.serialization import format_table


def build_custom_device() -> DeviceProfile:
    """A microcontroller-class NPU: little compute, little bandwidth, low power."""
    return DeviceProfile(
        name="tiny-npu",
        kind="edge",
        compute_rate_flops={"default": 4e9, "conv": 6e9, "fc": 8e9, "pool": 2e9},
        memory_bandwidth_bps=1.5e9,
        layer_overhead_s=30e-6,
        idle_power_w=0.15,
        busy_power_w=1.1,
    )


class NarrowLensSpace(LensSearchSpace):
    """Three-block space with thin layers, as appropriate for the tiny device."""

    space_name = "lens-narrow"

    def __init__(self):
        super().__init__(
            num_blocks=3,
            layers_per_block=(1, 2),
            kernel_sizes=(3, 5),
            filter_counts=(8, 16, 32, 64),
            fc_units=(64, 128, 256),
            min_pool_layers=2,
            num_classes=10,
            accuracy_input_shape=(3, 32, 32),
            performance_input_shape=(3, 96, 96),
        )


def build_custom_space() -> LensSearchSpace:
    """Instantiate and register the narrow space under its own name.

    After registration, ``SearchRequest(search_space="lens-narrow", ...)``,
    campaign grids and ``repro run --search-space lens-narrow`` all resolve
    it — this script keeps using the instance directly, but the envelope
    below shows the by-name declaration.  Note: parallel campaign workers
    re-import registries in fresh processes, so a space registered in a
    script like this one is only visible to them if the registering module
    is imported by the workers too (or run with ``workers=1``).
    """
    register_search_space(NarrowLensSpace.space_name, NarrowLensSpace, overwrite=True)
    request = SearchRequest(search_space="lens-narrow", strategy="lens")
    print(f"registered {NarrowLensSpace.space_name!r}; "
          f"request fingerprint {request.fingerprint()}")
    return NarrowLensSpace()


def main() -> None:
    device = build_custom_device()
    space = build_custom_space()
    print(space.describe())

    print("\nTraining per-layer latency/power predictors for the custom device...")
    predictor = LayerPerformancePredictor.train_for_device(
        device, noise_std=0.05, samples_per_type=120, seed=0
    )
    for family, scores in sorted(predictor.training_scores.items()):
        print(f"  {family}: latency R^2 = {scores['latency_r2']:.3f} "
              f"({int(scores['samples'])} profiled configurations)")

    scenario = Scenario(
        name=f"lte-2mbps/{device.name}",
        device=device,
        wireless_technology="lte",
        uplink_mbps=2.0,
        round_trip_s=0.03,
    )
    print(f"\nRunning LENS for {device.name} over LTE @ {scenario.uplink_mbps} Mbps...")
    outcome = run_search(
        scenario=scenario,
        num_initial=12,
        num_iterations=28,
        seed=11,
        search_space=space,
        predictor=predictor,
    )

    front = sorted(
        outcome.pareto_candidates(("error_percent", "energy_j")),
        key=lambda c: c.error_percent,
    )
    rows = [
        [
            candidate.architecture_name,
            round(candidate.error_percent, 1),
            round(candidate.energy_mj, 2),
            round(candidate.latency_ms, 1),
            candidate.best_energy_option.label,
        ]
        for candidate in front
    ]
    print(f"\nPareto-optimal designs ({len(front)} of {len(outcome)} explored):\n")
    print(format_table(rows, ["model", "error %", "energy mJ", "latency ms", "deployment"]))


if __name__ == "__main__":
    main()
