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
from functools import lru_cache
from typing import Dict

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


class AccuracyModel:
    """Interface: anything that can estimate a candidate's test error."""

    def error_percent(self, architecture: Architecture) -> float:
        """Estimated test error of the architecture, in percent (0-100)."""
        raise NotImplementedError


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
    def _statistics(architecture: Architecture) -> Dict[str, float]:
        # 1-D convolutions/poolings drive the same capacity trends as their
        # 2-D counterparts, so both families feed the structural statistics.
        summaries = architecture.summarize()
        conv = [s for s in summaries if s.layer_type in ("conv", "conv1d")]
        fc = [s for s in summaries if s.layer_type == "fc"]
        pools = [s for s in summaries if s.layer_type in ("pool", "pool1d")]
        conv_filters = [s.output_shape[0] for s in conv]
        # The final classifier is always present; hidden FC widths drive capacity.
        hidden_fc_units = [s.output_shape[0] for s in fc[:-1]] or [0]
        kernel_sizes = []
        for spec in architecture.layers:
            if spec.layer_type in ("conv", "conv1d"):
                kernel_sizes.append(spec.kernel_size)
        return {
            "num_conv": float(len(conv)),
            "num_fc": float(len(fc)),
            "num_pool": float(len(pools)),
            "mean_log2_filters": float(np.mean(np.log2(conv_filters))) if conv_filters else 0.0,
            "mean_kernel": float(np.mean(kernel_sizes)) if kernel_sizes else 3.0,
            "mean_log2_fc_units": float(np.mean(np.log2(np.maximum(hidden_fc_units, 1)))),
            "log10_params": float(np.log10(max(architecture.total_params, 1))),
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
        stats = self._statistics(architecture)

        depth_gain = 9.0 * (1.0 - np.exp(-stats["num_conv"] / 6.0))
        width_gain = 7.0 * (
            1.0 - np.exp(-max(stats["mean_log2_filters"] - 4.5, 0.0) / 1.8)
        )
        fc_gain = 4.0 * (
            1.0 - np.exp(-max(stats["mean_log2_fc_units"] - 8.0, 0.0) / 2.5)
        )
        # Moderate kernels (around 5) extract the most from 32x32 images.
        kernel_penalty = 0.8 * abs(stats["mean_kernel"] - 5.0) / 2.0
        # Ten epochs with moderate augmentation: very large models overfit slightly.
        overfit_penalty = 2.5 * max(stats["log10_params"] - 7.6, 0.0)
        # Losing all spatial resolution before the classifier costs a little.
        pooling_penalty = 0.6 * max(stats["num_pool"] - 4.0, 0.0)

        error = (
            self.base_error
            - depth_gain
            - width_gain
            - fc_gain
            + kernel_penalty
            + overfit_penalty
            + pooling_penalty
            + self._noise(architecture)
        )
        return float(np.clip(error, self.floor, self.ceiling))
