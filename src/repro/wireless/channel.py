"""Edge-to-cloud wireless channel model (Eq. 3-6 of the paper).

The communication cost of offloading data of size ``Size(data)`` over an
uplink of throughput ``tu`` is modelled as

    L_Tx   = Size(data) / tu                      (transmission latency)
    L_comm = L_Tx + L_RT                          (plus round-trip latency)
    E_comm = E_Tx = P_Tx(tu) * L_Tx               (transmission energy)

where ``P_Tx`` comes from the technology-specific
:class:`~repro.wireless.power_models.RadioPowerModel`.  The cloud's download
of results back to the edge is negligible (class scores are a few bytes) and
is absorbed into the round-trip term, as in the paper.

A :class:`WirelessChannel` holds the channel's parameters; the partitioner
(:meth:`repro.partition.partitioner.PartitionAnalyzer.evaluate_batch`)
evaluates the equations for every transfer of a candidate pool at once.
Their scalar form, one transfer at a time, is the test oracle
``tests/oracles/partition.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.utils.validation import require_finite, require_non_negative, require_positive
from repro.wireless.power_models import RadioPowerModel


@dataclass(frozen=True)
class WirelessChannel:
    """A wireless uplink characterised by technology, throughput and RTT.

    Parameters
    ----------
    power_model:
        Radio power model of the supported wireless technology.
    uplink_mbps:
        Expected upload throughput ``tu`` in Mbps (the design-time expectation
        LENS folds into its objectives).
    round_trip_s:
        Average round-trip network latency ``L_RT`` in seconds (the paper
        estimates it from repeated pings to the server).

    Both are finite real numbers, held as ``float`` (``ValueError`` for
    booleans, non-numbers, NaN and infinities).
    """

    power_model: RadioPowerModel
    uplink_mbps: float
    round_trip_s: float = 0.01

    def __post_init__(self) -> None:
        for name in ("uplink_mbps", "round_trip_s"):
            object.__setattr__(self, name, require_finite(getattr(self, name), name))
        require_positive(self.uplink_mbps, "uplink_mbps")
        require_non_negative(self.round_trip_s, "round_trip_s")

    @property
    def technology(self) -> str:
        """Wireless technology label of the underlying power model."""
        return self.power_model.technology

    @classmethod
    def create(
        cls, technology: str, uplink_mbps: float, round_trip_s: float = 0.01
    ) -> "WirelessChannel":
        """Build a channel from a technology name and expected conditions."""
        return cls(
            power_model=RadioPowerModel.for_technology(technology),
            uplink_mbps=uplink_mbps,
            round_trip_s=round_trip_s,
        )

    def transmission_power_w(self) -> float:
        """``P_Tx``: radio power while transmitting at the expected throughput."""
        return self.power_model.power_w(self.uplink_mbps)

    def to_dict(self) -> Dict:
        return {
            "technology": self.technology,
            "uplink_mbps": self.uplink_mbps,
            "round_trip_s": self.round_trip_s,
            "power_model": self.power_model.to_dict(),
        }
