"""Shared utilities: randomness, unit conversions, validation and serialization."""

from repro.utils.rng import ensure_rng
from repro.utils.units import (
    BYTES_PER_KB,
    bytes_to_kilobytes,
    mbps_to_bytes_per_second,
    milliwatts_to_watts,
)
from repro.utils.validation import (
    require_between,
    require_in,
    require_non_negative,
    require_positive,
)

__all__ = [
    "ensure_rng",
    "BYTES_PER_KB",
    "bytes_to_kilobytes",
    "mbps_to_bytes_per_second",
    "milliwatts_to_watts",
    "require_between",
    "require_in",
    "require_non_negative",
    "require_positive",
]
