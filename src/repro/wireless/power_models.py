"""Radio transmission power models (Huang et al., MobiSys'12).

The paper estimates the edge device's transmission power ``P_Tx`` "using the
power models proposed in [13], which estimates the power consumption based on
the value of tu and the wireless technology used."  Reference [13] (Huang et
al., "A Close Examination of Performance and Power Characteristics of 4G LTE
Networks") fits linear uplink power models of the form

    P_Tx(tu) = alpha_u * tu + beta        [mW, with tu in Mbps]

for LTE, WiFi and 3G.  The published coefficients are reproduced below; the
library exposes them in SI watts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.utils.units import milliwatts_to_watts
from repro.utils.validation import require_finite, require_non_negative

#: Published uplink coefficients (alpha_u in mW per Mbps, beta in mW).
HUANG_COEFFICIENTS_MILLIWATTS: Dict[str, Tuple[float, float]] = {
    "lte": (438.39, 1288.04),
    "wifi": (283.17, 132.86),
    "3g": (868.98, 817.88),
}

#: Wireless technologies the library understands.
SUPPORTED_TECHNOLOGIES = tuple(sorted(HUANG_COEFFICIENTS_MILLIWATTS))


@dataclass(frozen=True)
class RadioPowerModel:
    """Linear uplink power model ``P(tu) = alpha * tu + beta``.

    Parameters
    ----------
    technology:
        Human-readable technology label (``"lte"``, ``"wifi"``, ``"3g"`` or a
        custom name).
    alpha_w_per_mbps:
        Throughput-dependent coefficient in watts per Mbps.
    beta_w:
        Fixed radio power in watts while transmitting.

    Both coefficients must be finite, non-negative real numbers (never
    booleans) and are held as ``float``.
    """

    technology: str
    alpha_w_per_mbps: float
    beta_w: float

    def __post_init__(self) -> None:
        for name in ("alpha_w_per_mbps", "beta_w"):
            value = require_finite(getattr(self, name), name)
            object.__setattr__(self, name, require_non_negative(value, name))

    def power_w(self, uplink_mbps: float) -> float:
        """Transmission power in watts at the given uplink throughput."""
        require_non_negative(uplink_mbps, "uplink_mbps")
        return self.alpha_w_per_mbps * uplink_mbps + self.beta_w

    def to_dict(self) -> Dict:
        return {
            "technology": self.technology,
            "alpha_w_per_mbps": self.alpha_w_per_mbps,
            "beta_w": self.beta_w,
        }

    @classmethod
    def for_technology(cls, technology: str) -> "RadioPowerModel":
        """Power model for a supported wireless technology.

        The coefficients are the uplink fits published by Huang et al.
        (MobiSys'12), converted from milliwatts to watts.
        """
        key = technology.strip().lower()
        if key not in HUANG_COEFFICIENTS_MILLIWATTS:
            raise ValueError(
                f"unsupported wireless technology {technology!r}; "
                f"supported: {SUPPORTED_TECHNOLOGIES}"
            )
        alpha_mw, beta_mw = HUANG_COEFFICIENTS_MILLIWATTS[key]
        return cls(
            technology=key,
            alpha_w_per_mbps=milliwatts_to_watts(alpha_mw),
            beta_w=milliwatts_to_watts(beta_mw),
        )
