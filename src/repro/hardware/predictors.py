"""Per-layer latency and power prediction models (paper §IV-C).

The paper trains regression models — one latency model and one power model per
layer family — on measured profiling data, then calls them inside the NAS loop
to estimate each candidate architecture's per-layer performance.  This module
provides:

* :class:`RidgeRegression` — a small, dependency-free linear regression with
  L2 regularisation and feature standardisation;
* :class:`LayerPerformancePredictor` — the per-family latency/power model
  bundle, trainable from :class:`~repro.hardware.profiler.ProfilingDataset`
  objects and queried a whole candidate pool at a time;
* :class:`OracleLayerPredictor` — a noiseless pass-through to the simulator,
  useful for tests and for quantifying the regression models' error.

Every predictor has one prediction entry point, ``predict_pool``: one
read-only ``(num_layers, 2)`` float array of per-layer ``(latency s,
power W)`` per architecture.  A layer's energy is ``latency * power``.
The per-layer scalar reference is the test oracle
``tests/oracles/predictor.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.device import DeviceProfile
from repro.hardware.features import prediction_family
from repro.hardware.profiler import LayerProfiler, ProfilingDataset
from repro.hardware.simulator import LayerCostSimulator
from repro.nn.architecture import Architecture, LayerRows
from repro.nn.table import LAYER_TABLE
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_non_negative


#: Prediction floor: no layer is ever predicted faster/cheaper than this.
MIN_LATENCY_S = 1e-6
MIN_POWER_W = 1e-3


class RidgeRegression:
    """Linear regression with L2 regularisation and feature standardisation.

    The closed-form solution ``(X'X + aI)^-1 X'y`` is computed on standardised
    features; an intercept is always included and never regularised.
    """

    def __init__(self, alpha: float = 1e-3):
        require_non_negative(alpha, "alpha")
        self.alpha = float(alpha)
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._intercept: float = 0.0

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._weights is not None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RidgeRegression":
        """Fit the model to a design matrix and target vector."""
        X = np.atleast_2d(np.asarray(features, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"features has {X.shape[0]} rows but targets has {y.shape[0]} entries"
            )
        if X.shape[0] < 2:
            raise ValueError("at least two samples are required to fit the model")
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._std = np.where(std > 1e-12, std, 1.0)
        Xs = (X - self._mean) / self._std
        y_mean = float(y.mean())
        yc = y - y_mean
        gram = Xs.T @ Xs + self.alpha * np.eye(Xs.shape[1])
        self._weights = np.linalg.solve(gram, Xs.T @ yc)
        self._intercept = y_mean
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for one or more feature rows."""
        if not self.is_fitted:
            raise RuntimeError("RidgeRegression.predict called before fit")
        X = np.atleast_2d(np.asarray(features, dtype=float))
        Xs = (X - self._mean) / self._std
        return Xs @ self._weights + self._intercept

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination (R^2) on the given data."""
        y = np.asarray(targets, dtype=float).ravel()
        predictions = self.predict(features)
        residual = float(np.sum((y - predictions) ** 2))
        total = float(np.sum((y - y.mean()) ** 2))
        if total <= 1e-30:
            return 1.0 if residual <= 1e-30 else 0.0
        return 1.0 - residual / total


class BaseLayerPredictor:
    """Interface shared by the regression predictor and the oracle."""

    #: Device the predictor was built for.
    device: DeviceProfile

    def predict_pool(self, architectures: Sequence[Architecture]) -> List[np.ndarray]:
        """Per-layer ``(latency s, power W)`` of every architecture of a pool.

        One read-only ``(num_layers, 2)`` float array per architecture, in
        pool order; an empty pool gives an empty list.
        """
        raise NotImplementedError

    def predict_architecture(self, architecture: Architecture) -> np.ndarray:
        """:meth:`predict_pool` of a pool of one."""
        return self.predict_pool([architecture])[0]

    def totals(
        self,
        architecture: Architecture,
        predictions: Optional[np.ndarray] = None,
    ) -> Tuple[float, float]:
        """``(total latency, total energy)`` from one prediction pass.

        Pass ``predictions`` already made for ``architecture`` (e.g. one
        entry of :meth:`predict_pool`) to skip the predictor entirely.  The
        sums run left to right over Python floats, as the per-layer totals
        always have.
        """
        if predictions is None:
            predictions = self.predict_architecture(architecture)
        latencies = predictions[:, 0]
        latency = sum(latencies.tolist())
        energy = sum((latencies * predictions[:, 1]).tolist())
        return latency, energy


class LayerPerformancePredictor(BaseLayerPredictor):
    """Regression-based per-layer latency and power predictor.

    One :class:`RidgeRegression` pair (latency, power) is maintained for every
    layer family that appears in the profiling data.  Families never seen
    during profiling (``flatten``, ``dropout``) are predicted as free, which
    matches their negligible cost.
    """

    def __init__(self, device: DeviceProfile, alpha: float = 1e-3):
        self.device = device
        self.alpha = float(alpha)
        self._latency_models: Dict[str, RidgeRegression] = {}
        self._power_models: Dict[str, RidgeRegression] = {}
        self._training_scores: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ training
    def fit(self, datasets: Dict[str, ProfilingDataset]) -> "LayerPerformancePredictor":
        """Fit per-family latency and power models from profiling datasets."""
        if not datasets:
            raise ValueError("at least one profiling dataset is required")
        for family, dataset in datasets.items():
            latency_model = RidgeRegression(self.alpha).fit(
                dataset.features, dataset.latencies_s
            )
            power_model = RidgeRegression(self.alpha).fit(
                dataset.features, dataset.powers_w
            )
            self._latency_models[family] = latency_model
            self._power_models[family] = power_model
            self._training_scores[family] = {
                "latency_r2": latency_model.score(dataset.features, dataset.latencies_s),
                "power_r2": power_model.score(dataset.features, dataset.powers_w),
                "samples": float(len(dataset)),
            }
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether at least one layer family has trained models."""
        return bool(self._latency_models)

    @property
    def training_scores(self) -> Dict[str, Dict[str, float]]:
        """Training R^2 per layer family (diagnostics)."""
        return dict(self._training_scores)

    @property
    def supported_families(self) -> Tuple[str, ...]:
        """Layer families with trained models."""
        return tuple(sorted(self._latency_models))

    # ------------------------------------------------------------------ prediction
    def predict_pool(self, architectures: Sequence[Architecture]) -> List[np.ndarray]:
        """Vectorised per-layer predictions for a whole candidate pool.

        The pool is read as layer-table rows
        (:meth:`~repro.nn.architecture.LayerRows.of`).  Each prediction
        family's design matrix is gathered from the table's feature rows,
        with the family's layers in pool order then layer order, and each
        :class:`RidgeRegression` runs as a single matrix product — two
        matmuls per family for the entire pool instead of two per layer.
        Families without a model (flatten/dropout) are predicted as free at
        the device's idle power.
        """
        if not self.is_fitted:
            raise RuntimeError("predictor is not fitted; call fit() or train_for_device()")
        pool = LayerRows.of(architectures)
        flat = pool.flat
        features = LAYER_TABLE.features  # featurizes new rows
        families = np.array([prediction_family(t) for t in LAYER_TABLE.layer_types])
        layer_families = families[LAYER_TABLE.type_code[flat]]
        pairs = np.tile([0.0, self.device.idle_power_w], (len(flat), 1))
        for family, latency_model in self._latency_models.items():
            positions = np.flatnonzero(layer_families == family)
            width = latency_model._weights.size  # features per layer
            # the transpose of a C-ordered gather: the Fortran-ordered
            # matrix the regression's BLAS product has always been given
            matrix = np.take(features[:width], flat[positions], axis=1).T
            latency = latency_model.predict(matrix)
            power = self._power_models[family].predict(matrix)
            np.maximum(latency, MIN_LATENCY_S, out=latency)
            np.maximum(power, MIN_POWER_W, out=power)
            pairs[positions, 0] = latency
            pairs[positions, 1] = power
        return pool.split(pairs)

    # ------------------------------------------------------------------ convenience
    @classmethod
    def train_for_device(
        cls,
        device: DeviceProfile,
        noise_std: float = 0.03,
        samples_per_type: int = 300,
        alpha: float = 1e-3,
        seed: SeedLike = 0,
    ) -> "LayerPerformancePredictor":
        """Build, profile and fit a predictor for a device in one call.

        This mirrors the paper's workflow end-to-end: sweep layer
        configurations on the (simulated) device, collect noisy measurements,
        and fit the per-family regression models.
        """
        rng = ensure_rng(seed)
        simulator = LayerCostSimulator(device, noise_std=noise_std, rng=rng)
        profiler = LayerProfiler(
            simulator, samples_per_type=samples_per_type, rng=rng
        )
        predictor = cls(device, alpha=alpha)
        predictor.fit(profiler.profile_all())
        return predictor


class OracleLayerPredictor(BaseLayerPredictor):
    """Noise-free predictor that queries the simulator directly.

    Useful in tests (deterministic ground truth) and for measuring the
    regression predictor's approximation error.
    """

    def __init__(self, device: DeviceProfile):
        self.device = device
        self._simulator = LayerCostSimulator(device, noise_std=0.0)

    def predict_pool(self, architectures: Sequence[Architecture]) -> List[np.ndarray]:
        """The simulator's noiseless latency and power of every layer."""
        pool = LayerRows.of(architectures)
        records = LAYER_TABLE.records
        simulator = self._simulator
        pairs = np.array(
            [
                (simulator.latency(records[row]), simulator.power(records[row]))
                for row in pool.flat.tolist()
            ],
            dtype=float,
        ).reshape(-1, 2)
        return pool.split(pairs)


def prediction_error_report(
    predictor: LayerPerformancePredictor,
    architectures: Sequence[Architecture],
) -> Dict[str, float]:
    """Compare a fitted predictor against the noiseless oracle.

    Returns mean absolute percentage errors for whole-model latency and
    energy over the given architectures — a quick check that the regression
    pipeline is faithful enough for search-time ranking.

    Both totals of each model come from one batched prediction pass per
    predictor (:meth:`BaseLayerPredictor.totals`).  An empty pool has no
    error to report and raises :class:`ValueError`.
    """
    latency_errors: List[float] = []
    energy_errors: List[float] = []
    pool = list(architectures)
    if not pool:
        raise ValueError("prediction_error_report needs at least one architecture")
    oracle = OracleLayerPredictor(predictor.device)
    totals = [
        (
            oracle.totals(architecture, true_preds),
            predictor.totals(architecture, model_preds),
        )
        for architecture, true_preds, model_preds in zip(
            pool, oracle.predict_pool(pool), predictor.predict_pool(pool)
        )
    ]
    for (true_latency, true_energy), (predicted_latency, predicted_energy) in totals:
        latency_errors.append(abs(predicted_latency - true_latency) / true_latency)
        energy_errors.append(abs(predicted_energy - true_energy) / true_energy)
    return {
        "latency_mape": float(np.mean(latency_errors)),
        "energy_mape": float(np.mean(energy_errors)),
        "architectures": float(len(pool)),
    }
