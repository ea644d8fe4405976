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
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.architecture import Architecture, LayerRows
from repro.nn.table import LAYER_TABLE
from repro.utils.validation import require_non_negative

#: Layer families whose statistics drive the surrogate: 1-D
#: convolutions/poolings drive the same capacity trends as their 2-D
#: counterparts.
_CONV_TYPES = frozenset({"conv", "conv1d"})
_POOL_TYPES = frozenset({"pool", "pool1d"})


def _row_means(
    values: np.ndarray,
    mask: np.ndarray,
    empty: float,
    transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> np.ndarray:
    """``np.mean(transform(row))`` of each row's masked values, bit for bit.

    ``empty`` where a row masks nothing.  Rows with equal masked counts are
    stacked and averaged along axis 1, which sums each row in the order a
    1-D ``np.mean`` does (pairwise from eight values on).  One reduction
    over the rows concatenated would sum them in another order and move
    the last bits.
    """
    counts = mask.sum(axis=1)
    means = np.full(len(counts), empty)
    # rows in order of their masked count, so each count's values are one block
    order = np.argsort(counts, kind="stable")
    chosen = values[order][mask[order]]
    start = offset = 0
    for count, size in enumerate(np.bincount(counts).tolist()):
        if count and size:
            block = chosen[offset : offset + count * size].reshape(size, count)
            block = block if transform is None else transform(block)
            # ``block.mean(axis=1)``: the same reduction and division
            means[order[start : start + size]] = np.add.reduce(block, axis=1) / count
        start, offset = start + size, offset + count * size
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
    def _statistics(pool: LayerRows) -> Dict[str, np.ndarray]:
        """Structural statistics of a pool, one array entry per candidate."""
        ids = pool.ids
        codes = LAYER_TABLE.type_code[ids]

        def family(types) -> np.ndarray:
            return np.array([t in types for t in LAYER_TABLE.layer_types])[codes]

        conv, pools, fc = family(_CONV_TYPES), family(_POOL_TYPES), family({"fc"})
        # The final classifier is always present; hidden FC widths drive capacity.
        hidden_fc = fc & (np.cumsum(fc[:, ::-1], axis=1)[:, ::-1] > 1)
        width = LAYER_TABLE.out_channels[ids]
        params = np.maximum(LAYER_TABLE.params[ids].sum(axis=1), 1)
        return {
            "num_conv": conv.sum(axis=1).astype(float),
            "num_pool": pools.sum(axis=1).astype(float),
            "mean_log2_filters": _row_means(width, conv, 0.0, np.log2),
            "mean_kernel": _row_means(LAYER_TABLE.kernel[ids], conv, 3.0),
            "mean_log2_fc_units": _row_means(np.maximum(width, 1.0), hidden_fc, 0.0, np.log2),
            "log10_params": np.log10(params.astype(float)),
        }

    def _noise(self, key: str) -> float:
        """The noise term seeded by an architecture's noise-key text."""
        digest = hashlib.sha256((self.seed_salt + key).encode()).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        return float(rng.normal(0.0, self.noise_std))

    # ------------------------------------------------------------------ model
    def error_percent(self, architecture: Architecture) -> float:
        return self.error_percent_pool([architecture])[0]

    def error_percent_pool(self, architectures: Sequence[Architecture]) -> List[float]:
        """Estimated test errors of a pool, from pool-wide statistics.

        The pool is read as layer-table rows
        (:meth:`~repro.nn.architecture.LayerRows.of`), and every term is an
        element-wise array operation, so each entry equals the error of its
        architecture computed on its own.  The noise seed string is
        ``repr(architecture.to_dict()["layers"])`` (a list's repr joins its
        items' reprs with ``", "``), joined from the rows' noise keys.
        """
        pool = LayerRows.of(architectures)
        if not len(pool):
            return []
        stats = self._statistics(pool)

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
        keys = LAYER_TABLE.noise_keys
        noise = np.array(
            [
                self._noise("[" + ", ".join([keys[row] for row in chain]) + "]")
                for chain in pool.chains
            ]
        )

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
