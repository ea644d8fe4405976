"""Profiling-dataset generation for the per-layer performance predictors.

Section IV-C of the paper: "For each layer's type, different combinations of
both layer parameters and input/output feature map sizes are evaluated and
used to construct datasets for training the prediction models."  This module
enumerates/synthesises those combinations, runs them through the
:class:`~repro.hardware.simulator.LayerCostSimulator` (our stand-in for the
Jetson TX2 measurement apparatus) and packages the results as regression
datasets, one per layer family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.hardware.features import family_feature_matrix
from repro.hardware.simulator import LayerCostSimulator
from repro.nn.architecture import LayerSummary, summarize_layer
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.utils.rng import SeedLike, ensure_rng

#: Fewest configurations :class:`LayerProfiler` samples per layer family.
MIN_SAMPLES_PER_TYPE = 10


def _draw(rng: np.random.Generator, values: Sequence[int]) -> int:
    """``int(rng.choice(values))``, drawn as an index into ``values``.

    The generator draws the same index and is left in the same state, at a
    fraction of ``choice``'s cost (``tests/oracles/profiler.py``).
    """
    return int(values[rng.integers(0, len(values))])


@dataclass
class ProfilingDataset:
    """Regression dataset for a single layer family.

    Attributes
    ----------
    layer_type:
        Layer family the dataset describes (``conv``, ``fc``, ``pool``).
    features:
        ``(n, d)`` design matrix of layer features.
    latencies_s:
        ``(n,)`` measured latencies in seconds.
    powers_w:
        ``(n,)`` measured average power draws in watts.
    """

    layer_type: str
    features: np.ndarray
    latencies_s: np.ndarray
    powers_w: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.latencies_s = np.asarray(self.latencies_s, dtype=float).ravel()
        self.powers_w = np.asarray(self.powers_w, dtype=float).ravel()
        n = self.features.shape[0]
        if self.latencies_s.shape[0] != n or self.powers_w.shape[0] != n:
            raise ValueError(
                "features, latencies and powers must have the same number of rows"
            )

    def __len__(self) -> int:
        return self.features.shape[0]


class LayerProfiler:
    """Generates profiling datasets by sweeping layer configurations.

    Parameters
    ----------
    simulator:
        The measurement stand-in; its noise setting determines how noisy the
        generated datasets are.
    conv_spatial_sizes / conv_channels / conv_kernels / conv_filters / conv_strides:
        Sweep grids for convolutional layers.  The defaults cover the range of
        configurations reachable from the LENS search space and from AlexNet.
    fc_input_sizes / fc_units:
        Sweep grids for fully-connected layers.
    pool_spatial_sizes / pool_channels:
        Sweep grids for pooling layers.
    samples_per_type:
        Number of configurations sampled (without replacement when possible)
        from each family's full grid.
    """

    def __init__(
        self,
        simulator: LayerCostSimulator,
        conv_spatial_sizes: Sequence[int] = (7, 14, 28, 56, 112, 224),
        conv_channels: Sequence[int] = (3, 24, 36, 64, 96, 128, 256, 384),
        conv_kernels: Sequence[int] = (1, 3, 5, 7, 11),
        conv_filters: Sequence[int] = (24, 36, 64, 96, 128, 256, 384),
        conv_strides: Sequence[int] = (1, 2, 4),
        fc_input_sizes: Sequence[int] = (256, 1024, 4096, 9216, 12544, 25088, 50176),
        fc_units: Sequence[int] = (10, 256, 512, 1024, 2048, 4096, 8192),
        pool_spatial_sizes: Sequence[int] = (7, 14, 28, 56, 112, 224),
        pool_channels: Sequence[int] = (24, 64, 128, 256, 384),
        samples_per_type: int = 300,
        rng: SeedLike = None,
    ):
        if samples_per_type < MIN_SAMPLES_PER_TYPE:
            raise ValueError(
                f"samples_per_type must be >= {MIN_SAMPLES_PER_TYPE}, "
                f"got {samples_per_type}"
            )
        self.simulator = simulator
        self.conv_spatial_sizes = tuple(conv_spatial_sizes)
        self.conv_channels = tuple(conv_channels)
        self.conv_kernels = tuple(conv_kernels)
        self.conv_filters = tuple(conv_filters)
        self.conv_strides = tuple(conv_strides)
        self.fc_input_sizes = tuple(fc_input_sizes)
        self.fc_units = tuple(fc_units)
        self.pool_spatial_sizes = tuple(pool_spatial_sizes)
        self.pool_channels = tuple(pool_channels)
        self.samples_per_type = int(samples_per_type)
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------ sampling
    def _sample_conv_configs(self) -> Iterable[Tuple[Conv2D, Tuple[int, int, int]]]:
        rng = self._rng
        for _ in range(self.samples_per_type):
            spatial = _draw(rng, self.conv_spatial_sizes)
            channels = _draw(rng, self.conv_channels)
            kernel = _draw(rng, [k for k in self.conv_kernels if k <= spatial])
            filters = _draw(rng, self.conv_filters)
            stride = _draw(rng, self.conv_strides)
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
            in_features = _draw(rng, self.fc_input_sizes)
            units = _draw(rng, self.fc_units)
            yield Dense(name="profile_fc", units=units), (in_features,)

    def _sample_pool_configs(self) -> Iterable[Tuple[MaxPool2D, Tuple[int, int, int]]]:
        rng = self._rng
        for _ in range(self.samples_per_type):
            spatial = _draw(rng, self.pool_spatial_sizes)
            channels = _draw(rng, self.pool_channels)
            pool_size = _draw(rng, (2, 3))
            stride = 2
            yield (
                MaxPool2D(name="profile_pool", pool_size=pool_size, stride=stride),
                (channels, spatial, spatial),
            )

    # ------------------------------------------------------------------ dataset construction
    def _profile(self, family: str, configs: Iterable) -> ProfilingDataset:
        summaries: List[LayerSummary] = []
        latencies: List[float] = []
        powers: List[float] = []
        for layer, input_shape in configs:
            summary = summarize_layer(0, layer, input_shape)
            measurement = self.simulator.measure(summary)
            summaries.append(summary)
            latencies.append(measurement.latency_s)
            powers.append(measurement.power_w)
        features = family_feature_matrix(family, summaries)
        return ProfilingDataset(family, features, np.array(latencies), np.array(powers))

    def profile_conv(self) -> ProfilingDataset:
        """Profile convolutional layer configurations."""
        return self._profile("conv", self._sample_conv_configs())

    def profile_fc(self) -> ProfilingDataset:
        """Profile fully-connected layer configurations."""
        return self._profile("fc", self._sample_fc_configs())

    def profile_pool(self) -> ProfilingDataset:
        """Profile pooling layer configurations."""
        return self._profile("pool", self._sample_pool_configs())

    def profile_all(self) -> Dict[str, ProfilingDataset]:
        """Profile every layer family the predictors need."""
        return {
            "conv": self.profile_conv(),
            "fc": self.profile_fc(),
            "pool": self.profile_pool(),
        }
