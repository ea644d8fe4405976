"""Dataflow-graph view of an architecture: which layer boundaries may be cut.

The partitioner's original rule assumed a *linear* layer chain: any layer
boundary is structurally cuttable, and only the paper's shrinkage rule
(output smaller than the raw input) filters candidates.  Architectures with
skip connections break that assumption — cutting inside a residual block
would require shipping **two** tensors (the running activation *and* the
skip tensor) to the cloud, which the single-tensor transfer model of
Algorithm 1 cannot express.

A :class:`PartitionGraph` captures exactly the structural information the
partitioner needs: the number of layers in execution order plus the *skip
edges* ``(src, dst)`` — layer ``dst`` consumes the output of layer ``src``
in addition to the output of its direct predecessor.  A cut after layer
``j`` is legal iff no skip edge spans it strictly (``src < j < dst``): when
``src == j`` the transmitted tensor *is* the skip tensor, so the cut stays a
single-tensor transfer and remains legal.

Linear architectures (no skip edges) produce a graph that allows every
boundary, so the graph-aware enumeration degenerates to the original
linear-chain behaviour — the two are bit-identical on the ``lens-vgg``
space (see ``tests/test_partition_graph.py`` and
``benchmarks/bench_partition_spaces.py``).  The partitioner reads the rule
as :meth:`PartitionGraph.legal_cut_mask`; its scalar form, one boundary at a
time, is the test oracle ``tests/oracles/partition.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

#: A skip edge: layer ``dst`` additionally consumes the output of layer
#: ``src``.  ``src == -1`` denotes the raw network input.
SkipEdge = Tuple[int, int]

#: Sentinel source index denoting the network input tensor.
INPUT_NODE = -1


def normalize_skip_edges(edges: Iterable[Sequence[int]]) -> Tuple[SkipEdge, ...]:
    """Validate and canonicalise skip edges (sorted, deduplicated int pairs).

    Bounds against a concrete layer count are checked by
    :class:`PartitionGraph` (or :class:`~repro.nn.architecture.Architecture`);
    this helper only enforces the pair structure and ``src < dst`` ordering.
    """
    canonical: List[SkipEdge] = []
    for edge in edges:
        pair = tuple(int(v) for v in edge)
        if len(pair) != 2:
            raise ValueError(f"skip edge must be a (src, dst) pair, got {edge!r}")
        src, dst = pair
        if src < INPUT_NODE:
            raise ValueError(
                f"skip edge source must be >= {INPUT_NODE} (the network input), "
                f"got {src}"
            )
        if dst <= src:
            raise ValueError(
                f"skip edge must run forward (src < dst), got ({src}, {dst})"
            )
        canonical.append((src, dst))
    return tuple(sorted(set(canonical)))


@dataclass(frozen=True)
class PartitionGraph:
    """Cut-legality description of one concrete architecture.

    Parameters
    ----------
    num_layers:
        Number of layers in execution order.
    skip_edges:
        Non-chain data dependencies as ``(src, dst)`` pairs; ``src == -1``
        denotes the network input.  Edges must satisfy
        ``-1 <= src < dst < num_layers``.
    """

    num_layers: int
    skip_edges: Tuple[SkipEdge, ...] = ()

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        object.__setattr__(
            self, "skip_edges", normalize_skip_edges(self.skip_edges)
        )
        for src, dst in self.skip_edges:
            if dst >= self.num_layers:
                raise ValueError(
                    f"skip edge ({src}, {dst}) exceeds the layer count "
                    f"({self.num_layers})"
                )

    # ------------------------------------------------------------------ legality
    @property
    def is_linear(self) -> bool:
        """Whether the graph is a plain chain (every boundary cuttable)."""
        return not self.skip_edges

    def legal_cut_mask(self) -> np.ndarray:
        """Boolean mask over the ``num_layers - 1`` non-final boundaries.

        ``mask[j]`` says whether the boundary after layer ``j`` is a
        single-tensor cut: a skip edge ``(src, dst)`` forbids every boundary
        it spans strictly (``src < j < dst``), and a cut exactly at the
        edge's source stays legal because the transmitted tensor is the skip
        tensor itself.  The batched partition costing broadcasts it against
        per-candidate shrinkage masks.
        """
        mask = np.ones(self.num_layers - 1, dtype=bool)
        for src, dst in self.skip_edges:
            mask[src + 1 : dst] = False
        return mask
