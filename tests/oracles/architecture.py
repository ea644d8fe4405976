"""Reference per-layer analysis: uncached summaries and the surrogate's noise key.

:meth:`repro.nn.architecture.Architecture.summarize` takes every
``LayerSummary`` from a memo keyed by ``(index, layer, input_shape)``, and
:class:`repro.accuracy.surrogate.AccuracySurrogate` joins memoised per-layer
reprs into its noise seed string.  This module keeps what they replaced, as
the oracle the property tests compare them with:

* :func:`summarize` — shape inference layer by layer, every record built
  anew (the skip-edge shape check is not part of it: it still runs per
  architecture);
* :func:`noise_key` — ``repr(architecture.to_dict()["layers"])``;
* :class:`UncachedArchitecture` and :class:`ReferenceSurrogate` — an
  architecture and a surrogate that use only the two functions above, so an
  ``error_percent`` computed through them touches no memo.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.accuracy.surrogate import AccuracySurrogate
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
    """The accuracy surrogate with the noise seeded from :func:`noise_key`."""

    def _noise(self, architecture: Architecture) -> float:
        digest = hashlib.sha256(
            (self.seed_salt + noise_key(architecture)).encode()
        ).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        return float(rng.normal(0.0, self.noise_std))
