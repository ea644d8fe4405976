"""Analytic accuracy surrogate with CIFAR-10-like trends.

Training 300+ sampled architectures on CIFAR-10 for 10 epochs each — the
paper's accuracy-evaluation protocol — is a multi-GPU-day job that cannot run
offline on a CPU.  The NAS experiments therefore use this deterministic
surrogate, which maps a candidate architecture's structural statistics to a
plausible CIFAR-10 test error:

* deeper networks do better, with diminishing returns;
* wider convolutional blocks and larger fully-connected layers help, again
  with diminishing returns;
* moderate kernel sizes work best on 32x32 images (very large kernels waste
  capacity);
* extremely over-parameterised models pay a small penalty (10-epoch budget,
  moderate augmentation);
* a small deterministic "training noise" term, seeded from the architecture
  itself, models run-to-run variation.

The absolute values are synthetic; what matters for reproducing the paper's
search dynamics is that the error landscape responds smoothly and plausibly
to the same architectural knobs the search explores, and that error trades
off against the latency/energy objectives (bigger models are more accurate
but slower and hungrier).  The :class:`~repro.accuracy.trainer.TrainedAccuracyEvaluator`
offers genuine (small-scale) training through the same interface.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.architecture import Architecture
from repro.nn.layers import LAYER_MEMO_SIZE, LayerSpec
from repro.utils.validation import require_non_negative


@lru_cache(maxsize=LAYER_MEMO_SIZE)
def layer_noise_key(layer: LayerSpec) -> str:
    """``repr(layer.to_dict())``, computed once per distinct layer."""
    return repr(layer.to_dict())


def noise_key(architecture: Architecture) -> str:
    """The architecture part of the noise seed string.

    Equal to ``repr(architecture.to_dict()["layers"])`` (a list's repr joins
    its items' reprs with ``", "``), built from per-layer memo entries.
    """
    return "[" + ", ".join(map(layer_noise_key, architecture.layers)) + "]"


#: Layer families whose statistics drive the surrogate: 1-D
#: convolutions/poolings drive the same capacity trends as their 2-D
#: counterparts.
_CONV_TYPES = frozenset({"conv", "conv1d"})
_POOL_TYPES = frozenset({"pool", "pool1d"})


def _row_means(
    rows: Sequence[Sequence[float]],
    empty: float,
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """``np.mean(transform(row))`` of every row, bit for bit; ``empty`` for an empty row.

    Rows of one length are stacked and averaged along axis 1, which sums
    each row in the order a 1-D ``np.mean`` does (pairwise from eight values
    on).  One reduction over the rows concatenated would sum them in
    another order and move the last bits.
    """
    means = np.full(len(rows), empty)
    groups: Dict[int, List[int]] = defaultdict(list)
    for index, row in enumerate(rows):
        if row:
            groups[len(row)].append(index)
    for members in groups.values():
        values = np.array([rows[index] for index in members], dtype=float)
        if transform is not None:
            values = transform(values)
        means[members] = values.mean(axis=1)
    return means


class AccuracyModel:
    """Interface: anything that can estimate a candidate's test error.

    Implement :meth:`error_percent`; :meth:`error_percent_pool` calls it
    once per architecture, in pool order, unless a model estimates a pool
    faster as a whole.
    """

    def error_percent(self, architecture: Architecture) -> float:
        """Estimated test error of the architecture, in percent (0-100)."""
        raise NotImplementedError

    def error_percent_pool(self, architectures: Sequence[Architecture]) -> List[float]:
        """Estimated test errors of a candidate pool, in pool order."""
        return [self.error_percent(architecture) for architecture in architectures]


class AccuracySurrogate(AccuracyModel):
    """Deterministic analytic stand-in for per-candidate CIFAR-10 training.

    Parameters
    ----------
    base_error:
        Error of a minimal architecture (single thin layer per block).
    noise_std:
        Standard deviation of the architecture-seeded noise term, in percent.
    floor / ceiling:
        Clipping range of the returned error.
    seed_salt:
        Extra string mixed into the per-architecture noise seed, so two
        surrogates with different salts model different "training runs".
    """

    def __init__(
        self,
        base_error: float = 38.0,
        noise_std: float = 1.2,
        floor: float = 8.0,
        ceiling: float = 65.0,
        seed_salt: str = "lens",
    ):
        require_non_negative(noise_std, "noise_std")
        if not floor < ceiling:
            raise ValueError(f"floor ({floor}) must be below ceiling ({ceiling})")
        self.base_error = float(base_error)
        self.noise_std = float(noise_std)
        self.floor = float(floor)
        self.ceiling = float(ceiling)
        self.seed_salt = str(seed_salt)

    # ------------------------------------------------------------------ feature terms
    @staticmethod
    def _statistics(architectures: Sequence[Architecture]) -> Dict[str, np.ndarray]:
        """Structural statistics of a pool, one array entry per architecture."""
        num_conv, num_pool, params = [], [], []
        conv_filters, kernel_sizes, hidden_fc_units = [], [], []
        for architecture in architectures:
            filters, kernels, fc_units, pools = [], [], [], 0
            for spec, summary in zip(architecture.layers, architecture.summarize()):
                layer_type = summary.layer_type
                if layer_type in _CONV_TYPES:
                    filters.append(summary.output_shape[0])
                    kernels.append(spec.kernel_size)
                elif layer_type == "fc":
                    fc_units.append(summary.output_shape[0])
                elif layer_type in _POOL_TYPES:
                    pools += 1
            num_conv.append(len(filters))
            num_pool.append(pools)
            params.append(max(architecture.total_params, 1))
            conv_filters.append(filters)
            kernel_sizes.append(kernels)
            # The final classifier is always present; hidden FC widths drive capacity.
            hidden_fc_units.append([max(units, 1) for units in fc_units[:-1]] or [1])
        return {
            "num_conv": np.array(num_conv, dtype=float),
            "num_pool": np.array(num_pool, dtype=float),
            "mean_log2_filters": _row_means(conv_filters, 0.0, np.log2),
            "mean_kernel": _row_means(kernel_sizes, 3.0),
            "mean_log2_fc_units": _row_means(hidden_fc_units, 0.0, np.log2),
            "log10_params": np.log10(np.array(params, dtype=float)),
        }

    def _noise(self, architecture: Architecture) -> float:
        digest = hashlib.sha256(
            (self.seed_salt + noise_key(architecture)).encode()
        ).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        return float(rng.normal(0.0, self.noise_std))

    # ------------------------------------------------------------------ model
    def error_percent(self, architecture: Architecture) -> float:
        return self.error_percent_pool([architecture])[0]

    def error_percent_pool(self, architectures: Sequence[Architecture]) -> List[float]:
        """Estimated test errors of a pool, from pool-wide statistics.

        Every term is an element-wise array operation, so each entry equals
        the error of its architecture computed on its own.
        """
        stats = self._statistics(architectures)

        depth_gain = 9.0 * (1.0 - np.exp(-stats["num_conv"] / 6.0))
        width_gain = 7.0 * (
            1.0 - np.exp(-np.maximum(stats["mean_log2_filters"] - 4.5, 0.0) / 1.8)
        )
        fc_gain = 4.0 * (
            1.0 - np.exp(-np.maximum(stats["mean_log2_fc_units"] - 8.0, 0.0) / 2.5)
        )
        # Moderate kernels (around 5) extract the most from 32x32 images.
        kernel_penalty = 0.8 * np.abs(stats["mean_kernel"] - 5.0) / 2.0
        # Ten epochs with moderate augmentation: very large models overfit slightly.
        overfit_penalty = 2.5 * np.maximum(stats["log10_params"] - 7.6, 0.0)
        # Losing all spatial resolution before the classifier costs a little.
        pooling_penalty = 0.6 * np.maximum(stats["num_pool"] - 4.0, 0.0)
        noise = np.array([self._noise(architecture) for architecture in architectures])

        error = (
            self.base_error
            - depth_gain
            - width_gain
            - fc_gain
            + kernel_penalty
            + overfit_penalty
            + pooling_penalty
            + noise
        )
        return np.clip(error, self.floor, self.ceiling).tolist()
