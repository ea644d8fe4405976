"""Per-layer breakdowns of feature-map sizes and latency shares (paper Fig. 1).

The motivational example plots, for every layer of AlexNet, the size of its
output feature map and the percentage of the total execution latency it is
responsible for.  :func:`per_layer_report` produces the same rows for any
architecture and predictor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.hardware.predictors import BaseLayerPredictor
from repro.nn.architecture import Architecture
from repro.utils.units import bytes_to_kilobytes


@dataclass(frozen=True)
class LayerReportRow:
    """One row of the per-layer analysis."""

    index: int
    name: str
    layer_type: str
    output_kilobytes: float
    latency_s: float
    latency_share_percent: float
    smaller_than_input: bool

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "name": self.name,
            "layer_type": self.layer_type,
            "output_kilobytes": self.output_kilobytes,
            "latency_s": self.latency_s,
            "latency_share_percent": self.latency_share_percent,
            "smaller_than_input": self.smaller_than_input,
        }


def per_layer_report(
    architecture: Architecture, predictor: BaseLayerPredictor
) -> List[LayerReportRow]:
    """Per-layer output sizes and latency shares for an architecture.

    The ``smaller_than_input`` flag marks the layers the paper identifies as
    viable partition points (their output is smaller than the raw input, so
    transmitting it can beat uploading the input).
    """
    summaries = architecture.summarize()
    latencies = predictor.predict_architecture(architecture)[:, 0].tolist()
    total_latency = sum(latencies)
    input_bytes = architecture.input_bytes
    rows: List[LayerReportRow] = []
    for summary, latency in zip(summaries, latencies):
        share = latency / total_latency * 100.0 if total_latency > 0 else 0.0
        rows.append(
            LayerReportRow(
                index=summary.index,
                name=summary.name,
                layer_type=summary.layer_type,
                output_kilobytes=bytes_to_kilobytes(summary.output_bytes),
                latency_s=latency,
                latency_share_percent=share,
                smaller_than_input=summary.output_bytes < input_bytes,
            )
        )
    return rows


def latency_share_by_type(
    architecture: Architecture, predictor: BaseLayerPredictor
) -> Dict[str, float]:
    """Fraction of total latency attributable to each layer family.

    Used to verify the Fig. 1 takeaway that the fully-connected layers account
    for roughly half of AlexNet's execution time on the edge GPU.
    """
    rows = per_layer_report(architecture, predictor)
    shares: Dict[str, float] = {}
    for row in rows:
        shares[row.layer_type] = shares.get(row.layer_type, 0.0) + row.latency_share_percent
    return shares
