"""Unit conversion helpers.

The library's internal convention is SI: seconds, joules, watts and bytes.
Wireless throughput is expressed in megabits per second (Mbps) because that is
the unit the paper, the Opensignal report and the Huang et al. power models
use; :func:`mbps_to_bytes_per_second` bridges the two conventions.
"""

from __future__ import annotations

BITS_PER_BYTE = 8
BYTES_PER_KB = 1024


def bytes_to_kilobytes(num_bytes: float) -> float:
    """Convert bytes to binary kilobytes (KiB)."""
    return num_bytes / BYTES_PER_KB


def mbps_to_bytes_per_second(mbps: float) -> float:
    """Convert a throughput in megabits per second to bytes per second.

    Network throughput uses decimal megabits (1 Mbps = 1e6 bits/s), matching
    how carriers and the Opensignal report quote uplink speed.
    """
    return mbps * 1e6 / BITS_PER_BYTE


def milliwatts_to_watts(milliwatts: float) -> float:
    """Convert milliwatts to watts."""
    return milliwatts / 1e3
