"""Edge-device performance modelling: device profiles, simulator, predictors."""

from repro.hardware.device import (
    BUILTIN_DEVICES,
    DeviceProfile,
    cloud_server,
    device_by_name,
    jetson_tx2_cpu,
    jetson_tx2_gpu,
)
from repro.hardware.features import family_feature_matrix
from repro.hardware.predictors import (
    BaseLayerPredictor,
    LayerPerformancePredictor,
    OracleLayerPredictor,
    RidgeRegression,
    prediction_error_report,
)
from repro.hardware.profiler import LayerProfiler, ProfilingDataset
from repro.hardware.simulator import LayerCostSimulator, LayerMeasurement

__all__ = [
    "BUILTIN_DEVICES",
    "DeviceProfile",
    "cloud_server",
    "device_by_name",
    "jetson_tx2_cpu",
    "jetson_tx2_gpu",
    "family_feature_matrix",
    "BaseLayerPredictor",
    "LayerPerformancePredictor",
    "OracleLayerPredictor",
    "RidgeRegression",
    "prediction_error_report",
    "LayerProfiler",
    "ProfilingDataset",
    "LayerCostSimulator",
    "LayerMeasurement",
]
