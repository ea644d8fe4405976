"""Reference profiling draws: ``rng.choice`` over every sweep grid.

:class:`repro.hardware.profiler.LayerProfiler` draws each grid value as
``values[rng.integers(0, len(values))]``.  This module keeps the three
samplers that drew with ``rng.choice(values)`` instead, as
:class:`ChoiceLayerProfiler`, the oracle the parity tests compare datasets
and generator states with.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.hardware.profiler import LayerProfiler
from repro.nn.layers import Conv2D, Dense, MaxPool2D


class ChoiceLayerProfiler(LayerProfiler):
    """A :class:`LayerProfiler` whose samplers draw with ``rng.choice``."""

    def _sample_conv_configs(self) -> Iterable[Tuple[Conv2D, Tuple[int, int, int]]]:
        rng = self._rng
        for _ in range(self.samples_per_type):
            spatial = int(rng.choice(self.conv_spatial_sizes))
            channels = int(rng.choice(self.conv_channels))
            kernel = int(rng.choice([k for k in self.conv_kernels if k <= spatial]))
            filters = int(rng.choice(self.conv_filters))
            stride = int(rng.choice(self.conv_strides))
            layer = Conv2D(
                name="profile_conv",
                out_channels=filters,
                kernel_size=kernel,
                stride=stride,
                padding="same",
                batch_norm=True,
            )
            yield layer, (channels, spatial, spatial)

    def _sample_fc_configs(self) -> Iterable[Tuple[Dense, Tuple[int]]]:
        rng = self._rng
        for _ in range(self.samples_per_type):
            in_features = int(rng.choice(self.fc_input_sizes))
            units = int(rng.choice(self.fc_units))
            yield Dense(name="profile_fc", units=units), (in_features,)

    def _sample_pool_configs(self) -> Iterable[Tuple[MaxPool2D, Tuple[int, int, int]]]:
        rng = self._rng
        for _ in range(self.samples_per_type):
            spatial = int(rng.choice(self.pool_spatial_sizes))
            channels = int(rng.choice(self.pool_channels))
            pool_size = int(rng.choice([2, 3]))
            stride = 2
            yield (
                MaxPool2D(name="profile_pool", pool_size=pool_size, stride=stride),
                (channels, spatial, spatial),
            )
