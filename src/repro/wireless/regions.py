"""Regional average upload-throughput catalogue (paper Table I).

The paper quotes average experienced upload throughputs from the Opensignal
"State of Mobile Network Experience 2020" report for three regions and shows
how AlexNet's preferred deployment option changes between them.  The three
quoted values are reproduced verbatim; a few additional regions with
representative values are included so the regional-deployment example and the
Table I benchmark can sweep a broader range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.utils.validation import require_finite, require_positive


@dataclass(frozen=True)
class Region:
    """A geographic region with its average experienced upload throughput.

    ``avg_uplink_mbps`` must be a finite, positive real number (never a
    boolean) and is held as ``float``.
    """

    name: str
    avg_uplink_mbps: float
    source: str = "opensignal-2020"

    def __post_init__(self) -> None:
        uplink = require_finite(self.avg_uplink_mbps, "avg_uplink_mbps")
        object.__setattr__(
            self, "avg_uplink_mbps", require_positive(uplink, "avg_uplink_mbps")
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "avg_uplink_mbps": self.avg_uplink_mbps,
            "source": self.source,
        }


#: Regions quoted in the paper's Table I.
PAPER_REGIONS: Tuple[Region, ...] = (
    Region("South Korea", 16.1),
    Region("USA", 7.5),
    Region("Afghanistan", 0.7),
)

#: Additional representative regions for broader sweeps (synthetic values in
#: the range spanned by the 2020 report; marked accordingly).
EXTRA_REGIONS: Tuple[Region, ...] = (
    Region("Japan", 13.2, source="synthetic-representative"),
    Region("Germany", 9.8, source="synthetic-representative"),
    Region("Brazil", 5.6, source="synthetic-representative"),
    Region("India", 3.1, source="synthetic-representative"),
    Region("Nigeria", 1.8, source="synthetic-representative"),
)

#: Full catalogue keyed by region name.
ALL_REGIONS: Dict[str, Region] = {
    region.name: region for region in PAPER_REGIONS + EXTRA_REGIONS
}


def region_by_name(name: str) -> Region:
    """Look up a region by (case-insensitive) name."""
    for region_name, region in ALL_REGIONS.items():
        if region_name.lower() == name.strip().lower():
            return region
    raise KeyError(f"unknown region {name!r}; available: {sorted(ALL_REGIONS)}")


def paper_regions() -> List[Region]:
    """The three regions of the paper's Table I, in paper order."""
    return list(PAPER_REGIONS)


def all_regions() -> List[Region]:
    """Every region in the catalogue, sorted by decreasing throughput."""
    return sorted(ALL_REGIONS.values(), key=lambda r: -r.avg_uplink_mbps)
