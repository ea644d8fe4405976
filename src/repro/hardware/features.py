"""Feature extraction for the per-layer performance regression models.

Following the prediction-model construction of Neurosurgeon (Kang et al.,
ASPLOS'17), which the paper adopts ("Each prediction model would have its
input features constructed as in [3]"), each layer family has its own small
feature vector built from the layer's configuration and its input/output
feature-map sizes.  Features are expressed in "mega" units (1e6 elements /
operations / bytes) so the regression design matrices are well conditioned.

:func:`family_feature_matrix` builds the design matrix of a whole family
group in one pass and is the only feature definition; the per-layer
extractors it replaced are kept as the test oracle
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


# One column function per prediction family.  Each gathers the *raw*
# counts of a whole family group column by column (plain list
# comprehensions, no per-layer array or tuple allocation), and
# :func:`family_feature_matrix` converts them in one ``np.array`` call and
# applies one matrix-wide ``/ MEGA``.

def _conv_columns(summaries: List[LayerSummary]) -> tuple:
    """Convolutions: input elements, output elements, MACs, parameters,
    weight bytes and total activation+weight traffic."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
        [s.params for s in summaries],
        [s.weight_bytes for s in summaries],
        [
            s.weight_bytes + s.output_bytes + 4 * s.input_elements
            for s in summaries
        ],
    )


def _fc_columns(summaries: List[LayerSummary]) -> tuple:
    """Fully-connected layers: input features, output features, MACs and
    weight bytes."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
        [s.weight_bytes for s in summaries],
    )


def _pool_columns(summaries: List[LayerSummary]) -> tuple:
    """Poolings: input elements, output elements and operations."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
    )


def _generic_columns(summaries: List[LayerSummary]) -> tuple:
    """Structural layers (flatten, dropout): input and output elements."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
    )


_COLUMN_BUILDERS = {
    "conv": _conv_columns,
    "fc": _fc_columns,
    "pool": _pool_columns,
}


def family_feature_matrix(family: str, summaries: List[LayerSummary]) -> np.ndarray:
    """``(len(summaries), d)`` design matrix for one prediction family.

    The one feature definition of the library: the profiler builds its
    training rows with it and the predictors featurize candidate pools
    with it.  ``family`` must be the summaries' shared
    :func:`prediction_family`; families without columns of their own get
    the generic two columns.  The matrix is the transpose of the
    column stack, so it is Fortran-ordered.
    """
    builder = _COLUMN_BUILDERS.get(family, _generic_columns)
    matrix = np.array(builder(summaries), dtype=float).T
    matrix /= MEGA
    return matrix
