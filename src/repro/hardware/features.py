"""Feature extraction for the per-layer performance regression models.

Following the prediction-model construction of Neurosurgeon (Kang et al.,
ASPLOS'17), which the paper adopts ("Each prediction model would have its
input features constructed as in [3]"), each layer family has its own small
feature vector built from the layer's configuration and its input/output
feature-map sizes.  Features are expressed in "mega" units (1e6 elements /
operations / bytes) so the regression design matrices are well conditioned.

:func:`family_feature_matrix` builds the design matrix of a family group
and is the only feature definition: the profiler's training rows and the
layer table's feature rows (:mod:`repro.nn.table`) both come from it.  The
per-layer extractors it replaced are kept as the test oracle
``tests/oracles/predictor.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.architecture import LayerSummary

#: Scaling applied to raw counts before regression.
MEGA = 1e6

#: Layer types costed through another family's prediction models.  1-D
#: convolutions and poolings have the same arithmetic structure as their 2-D
#: counterparts (MACs, parameter and traffic counts are computed the same
#: way), so they share the ``conv`` / ``pool`` regression models and compute
#: rates rather than requiring their own profiling sweeps.
FAMILY_ALIASES = {
    "conv1d": "conv",
    "pool1d": "pool",
}


def prediction_family(layer_type: str) -> str:
    """Prediction-model family a layer type is costed with."""
    return FAMILY_ALIASES.get(layer_type, layer_type)


#: The raw counts of one layer's feature row, per prediction family; a
#: family without its own (flatten, dropout) uses the input and output
#: elements.
_FEATURE_COUNTS = {
    # convolutions: input and output elements, MACs, parameters, weight
    # bytes and total activation+weight traffic
    "conv": lambda s: (
        s.input_elements,
        s.output_elements,
        s.macs,
        s.params,
        s.weight_bytes,
        s.weight_bytes + s.output_bytes + 4 * s.input_elements,
    ),
    # fully-connected layers: input and output features, MACs, weight bytes
    "fc": lambda s: (s.input_elements, s.output_elements, s.macs, s.weight_bytes),
    # poolings: input elements, output elements and operations
    "pool": lambda s: (s.input_elements, s.output_elements, s.macs),
}


def family_feature_matrix(family: str, summaries: List[LayerSummary]) -> np.ndarray:
    """``(len(summaries), d)`` design matrix for one prediction family.

    The one feature definition of the library: the profiler builds its
    training rows with it and the layer table its rows' feature rows, which
    the predictors gather.  ``family`` must be the summaries' shared
    :func:`prediction_family`.  Each entry is a raw count divided by
    :data:`MEGA`.
    """
    counts = _FEATURE_COUNTS.get(family, lambda s: (s.input_elements, s.output_elements))
    return np.array([counts(summary) for summary in summaries], dtype=float) / MEGA
