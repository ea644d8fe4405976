"""Reference per-layer analysis and the per-architecture accuracy surrogate.

:meth:`repro.nn.architecture.Architecture.summarize` reads every
``LayerSummary`` as a view of a row of the process's layer table
(:mod:`repro.nn.table`), and
:class:`repro.accuracy.surrogate.AccuracySurrogate` joins the rows' noise
keys into its noise seed string and computes its structural statistics for
a whole pool by gathers over row ids.  This module keeps what they
replaced, as the oracle the property tests compare them with:

* :func:`summarize` — shape inference layer by layer, every record built
  anew (the skip-edge shape check is not part of it: it runs in
  ``Architecture.row_ids``, once per architecture);
* :func:`noise_key` — ``repr(architecture.to_dict()["layers"])``, and
  :func:`noise`, the surrogate's noise term seeded from it;
* :func:`statistics` and :func:`surrogate_error` — the surrogate's
  statistics and error of one architecture, from small per-row NumPy calls;
* :class:`UncachedArchitecture` and :class:`ReferenceSurrogate` — an
  architecture and a surrogate that use only the functions above, so an
  ``error_percent`` computed through them touches no table row and no
  pool-wide array.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from repro.accuracy.surrogate import AccuracyModel, AccuracySurrogate
from repro.nn.architecture import Architecture, LayerSummary
from repro.nn.layers import layer_from_dict, shape_bytes


def summarize(architecture: Architecture) -> Tuple[LayerSummary, ...]:
    """Per-layer summaries of ``architecture``, each built anew."""
    summaries: List[LayerSummary] = []
    current_shape = architecture.input_shape
    for index, layer in enumerate(architecture.layers):
        output_shape = layer.output_shape(current_shape)
        summaries.append(
            LayerSummary(
                index=index,
                name=layer.name,
                layer_type=layer.layer_type,
                input_shape=current_shape,
                output_shape=output_shape,
                params=layer.param_count(current_shape),
                macs=layer.macs(current_shape),
                output_bytes=shape_bytes(output_shape),
                weight_bytes=layer.weight_bytes(current_shape),
                is_partition_candidate=layer.is_partition_candidate,
            )
        )
        current_shape = output_shape
    return tuple(summaries)


def noise_key(architecture: Architecture) -> str:
    """The architecture part of the surrogate's noise seed string."""
    return repr(architecture.to_dict()["layers"])


def noise(surrogate: AccuracySurrogate, architecture: Architecture) -> float:
    """``surrogate``'s noise term of one architecture, seeded by :func:`noise_key`."""
    digest = hashlib.sha256(
        (surrogate.seed_salt + noise_key(architecture)).encode()
    ).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return float(rng.normal(0.0, surrogate.noise_std))


def statistics(architecture: Architecture) -> Dict[str, float]:
    """The surrogate's structural statistics of one architecture."""
    # 1-D convolutions/poolings drive the same capacity trends as their
    # 2-D counterparts, so both families feed the structural statistics.
    summaries = summarize(architecture)
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
        "log10_params": float(np.log10(max(sum(s.params for s in summaries), 1))),
    }


def surrogate_error(surrogate: AccuracySurrogate, architecture: Architecture) -> float:
    """``surrogate``'s error of one architecture, term by term in scalars."""
    stats = statistics(architecture)

    depth_gain = 9.0 * (1.0 - np.exp(-stats["num_conv"] / 6.0))
    width_gain = 7.0 * (
        1.0 - np.exp(-max(stats["mean_log2_filters"] - 4.5, 0.0) / 1.8)
    )
    fc_gain = 4.0 * (
        1.0 - np.exp(-max(stats["mean_log2_fc_units"] - 8.0, 0.0) / 2.5)
    )
    kernel_penalty = 0.8 * abs(stats["mean_kernel"] - 5.0) / 2.0
    overfit_penalty = 2.5 * max(stats["log10_params"] - 7.6, 0.0)
    pooling_penalty = 0.6 * max(stats["num_pool"] - 4.0, 0.0)

    error = (
        surrogate.base_error
        - depth_gain
        - width_gain
        - fc_gain
        + kernel_penalty
        + overfit_penalty
        + pooling_penalty
        + noise(surrogate, architecture)
    )
    return float(np.clip(error, surrogate.floor, surrogate.ceiling))


class UncachedArchitecture(Architecture):
    """An architecture whose :meth:`summarize` is the oracle's, every call."""

    @classmethod
    def copy_of(cls, architecture: Architecture) -> "UncachedArchitecture":
        """A copy of ``architecture`` built from freshly constructed layer specs."""
        return cls(
            architecture.name,
            architecture.input_shape,
            [layer_from_dict(layer.to_dict()) for layer in architecture.layers],
            input_bytes_per_element=architecture.input_bytes_per_element,
            skip_edges=architecture.skip_edges,
        )

    def summarize(self) -> Tuple[LayerSummary, ...]:
        return summarize(self)


class ReferenceSurrogate(AccuracySurrogate):
    """The accuracy surrogate computed one architecture at a time.

    Errors come from :func:`surrogate_error`, with the noise seeded from
    :func:`noise_key`; a pool is estimated one architecture at a time.
    """

    error_percent_pool = AccuracyModel.error_percent_pool

    def error_percent(self, architecture: Architecture) -> float:
        return surrogate_error(self, architecture)
