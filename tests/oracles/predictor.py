"""Scalar reference of the per-layer performance predictors (paper §IV-C).

:func:`repro.hardware.features.family_feature_matrix` is the only feature
definition in the library, and ``predict_pool`` the only prediction entry
point.  This module keeps the per-layer path they replaced — one layer,
one feature vector, one regression call per model — as the oracle the
parity tests and benchmark gates compare them with:

* :func:`layer_features` — Neurosurgeon-style features of one layer, in
  mega-units;
* :func:`predict_layer` — ``(latency s, power W)`` of one layer under a
  trained or oracle predictor;
* :func:`predict_architecture` — those pairs for every layer of one
  architecture, in the array layout ``predict_pool`` returns.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from oracles.architecture import summarize

from repro.hardware.features import MEGA, prediction_family
from repro.hardware.predictors import MIN_LATENCY_S, MIN_POWER_W, OracleLayerPredictor
from repro.hardware.simulator import LayerCostSimulator
from repro.nn.architecture import Architecture, LayerSummary


def layer_features(summary: LayerSummary) -> np.ndarray:
    """Feature vector of one layer, by its prediction family."""
    family = prediction_family(summary.layer_type)
    counts = [summary.input_elements, summary.output_elements]
    if family == "conv":
        traffic = summary.weight_bytes + summary.output_bytes + 4 * summary.input_elements
        counts += [summary.macs, summary.params, summary.weight_bytes, traffic]
    elif family == "fc":
        counts += [summary.macs, summary.weight_bytes]
    elif family == "pool":
        counts += [summary.macs]
    return np.array([count / MEGA for count in counts])


def predict_layer(predictor, summary: LayerSummary) -> Tuple[float, float]:
    """``(latency s, power W)`` of one layer, one feature row per model."""
    if isinstance(predictor, OracleLayerPredictor):
        simulator = LayerCostSimulator(predictor.device, noise_std=0.0)
        return simulator.latency(summary), simulator.power(summary)
    if not predictor.is_fitted:
        raise RuntimeError("predictor is not fitted")
    family = prediction_family(summary.layer_type)
    if family not in predictor.supported_families:
        # Structural layers (flatten/dropout) carry no measurable cost.
        return 0.0, predictor.device.idle_power_w
    features = layer_features(summary)
    latency = float(predictor._latency_models[family].predict(features)[0])
    power = float(predictor._power_models[family].predict(features)[0])
    return max(latency, MIN_LATENCY_S), max(power, MIN_POWER_W)


def predict_architecture(predictor, architecture: Architecture) -> np.ndarray:
    """``(num_layers, 2)`` array of :func:`predict_layer` over every layer."""
    return np.array(
        [predict_layer(predictor, summary) for summary in summarize(architecture)],
        dtype=float,
    ).reshape(-1, 2)
