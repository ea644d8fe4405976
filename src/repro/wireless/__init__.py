"""Wireless communication substrate: power models, channels, regions, traces."""

from repro.wireless.channel import WirelessChannel
from repro.wireless.power_models import (
    HUANG_COEFFICIENTS_MILLIWATTS,
    SUPPORTED_TECHNOLOGIES,
    RadioPowerModel,
)
from repro.wireless.regions import (
    ALL_REGIONS,
    EXTRA_REGIONS,
    PAPER_REGIONS,
    Region,
    all_regions,
    paper_regions,
    region_by_name,
)
from repro.wireless.tracker import ThroughputTracker
from repro.wireless.traces import (
    ThroughputSample,
    ThroughputTrace,
    generate_lte_trace,
)

__all__ = [
    "WirelessChannel",
    "HUANG_COEFFICIENTS_MILLIWATTS",
    "SUPPORTED_TECHNOLOGIES",
    "RadioPowerModel",
    "ALL_REGIONS",
    "EXTRA_REGIONS",
    "PAPER_REGIONS",
    "Region",
    "all_regions",
    "paper_regions",
    "region_by_name",
    "ThroughputTracker",
    "ThroughputSample",
    "ThroughputTrace",
    "generate_lte_trace",
]
