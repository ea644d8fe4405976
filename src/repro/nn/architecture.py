"""Architecture container and static (shape / cost) analysis.

An :class:`Architecture` is an ordered list of :class:`~repro.nn.layers.LayerSpec`
objects together with an input shape.  Calling :meth:`Architecture.summarize`
performs full shape inference and returns one :class:`LayerSummary` per layer
with everything the partitioning engine and the hardware predictors need:
input/output shapes, parameter counts, MAC counts and activation byte sizes.
Those records are views of rows of the layer table (:mod:`repro.nn.table`),
and :class:`LayerRows` reads a whole candidate pool as rows of table ids,
which is what evaluation gathers from.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.graph import PartitionGraph, SkipEdge
from repro.nn.layers import LayerSpec, Shape, element_count, layer_from_dict
# LayerSummary and summarize_layer are re-exported from their table module.
from repro.nn.table import LAYER_TABLE, LayerSummary, summarize_layer  # noqa: F401


def check_skip_edges(
    input_shape: Shape, rows: Sequence[int], skip_edges: Sequence[SkipEdge]
) -> None:
    """Raise ``ValueError`` unless every skip edge joins mergeable shapes.

    ``rows`` are the architecture's table rows; a skip tensor merges
    element-wise, directly or through a downsampling projection.
    """
    records = LAYER_TABLE.records
    for src, dst in skip_edges:
        src_shape = input_shape if src < 0 else records[rows[src]].output_shape
        dst_shape = records[rows[dst]].output_shape
        if src_shape != dst_shape and _projection_stride(src_shape, dst_shape) is None:
            raise ValueError(
                f"skip edge ({src}, {dst}) joins incompatible shapes "
                f"{src_shape} -> {dst_shape}; skip tensors merge "
                "element-wise, directly or through a downsampling "
                "projection"
            )


def require_unique_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` when a layer name repeats."""
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate layer names: {duplicates}")


def _projection_stride(src_shape: Shape, dst_shape: Shape) -> Optional[int]:
    """Stride of a downsampling 1x1 projection from ``src_shape`` to ``dst_shape``.

    A ResNet projection shortcut reconciles a skip tensor with its merge
    point through a "same"-padded 1x1 convolution of integer stride ``s``,
    mapping ``(c, d1, d2, ...)`` to ``(c', ceil(d1 / s), ceil(d2 / s), ...)``
    for any channel count ``c'``.  Returns the unique stride ``s >= 2`` that
    maps every spatial dimension of ``src_shape`` onto ``dst_shape``, or
    ``None`` when no such stride exists.  Channel-only mismatches at equal
    spatial size are deliberately *not* accepted: no search space emits
    them, so they are far more likely a wiring bug than an intended
    projection, and rejecting them keeps the shape check a real guard.
    """
    if len(src_shape) != len(dst_shape) or len(src_shape) < 2:
        return None
    strides = set()
    for src_dim, dst_dim in zip(src_shape[1:], dst_shape[1:]):
        if dst_dim < 1 or src_dim <= dst_dim:
            return None
        stride = -(-src_dim // dst_dim)
        if -(-src_dim // stride) != dst_dim:
            return None
        strides.add(stride)
    return strides.pop() if len(strides) == 1 else None


class Architecture:
    """An ordered stack of layers with a fixed input shape.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"alexnet"`` or ``"lens-candidate-42"``.
    input_shape:
        Channels-first shape of the network input, e.g. ``(3, 224, 224)``.
    layers:
        The layer specifications, applied in order.
    input_bytes_per_element:
        Storage size of one raw input element when the input is uploaded to
        the cloud.  Camera images are captured as 8-bit pixels, so the default
        is 1 byte — a 224x224x3 input occupies 147 kB, the figure the paper
        quotes — while intermediate feature maps remain 4-byte floats.
    skip_edges:
        Non-chain data dependencies as ``(src, dst)`` layer-index pairs
        (``src == -1`` denotes the network input): layer ``dst`` consumes the
        output of layer ``src`` in addition to its direct predecessor's, as
        in a residual block.  Layers are still *executed* in list order and
        shape inference stays sequential — skip tensors are merged by
        element-wise addition, either directly (identity shortcuts, matching
        shapes) or after an implicit strided 1x1 projection when every
        spatial dimension shrinks by one shared integer stride (ResNet-style
        projection shortcuts across a downsampling).  The merge changes
        neither the main-path shapes nor (to first order) costs, but the
        partitioner uses these edges to exclude cuts that would split a
        skip connection.
    """

    def __init__(
        self,
        name: str,
        input_shape: Shape,
        layers: Sequence[LayerSpec],
        input_bytes_per_element: int = 1,
        skip_edges: Sequence[SkipEdge] = (),
    ):
        if not layers:
            raise ValueError("an architecture requires at least one layer")
        if input_bytes_per_element < 1:
            raise ValueError(
                f"input_bytes_per_element must be >= 1, got {input_bytes_per_element}"
            )
        self.name = str(name)
        self.input_shape: Shape = tuple(int(s) for s in input_shape)
        self.input_bytes_per_element = int(input_bytes_per_element)
        self.layers: Tuple[LayerSpec, ...] = tuple(layers)
        require_unique_names([layer.name for layer in self.layers])
        # PartitionGraph normalises and bounds-checks the edges once; the
        # graph is immutable, so every partition_graph() call shares it.
        self._partition_graph = PartitionGraph(
            num_layers=len(self.layers), skip_edges=tuple(skip_edges)
        )
        self.skip_edges: Tuple[SkipEdge, ...] = self._partition_graph.skip_edges
        self._row_ids: Optional[Tuple[int, ...]] = None
        self._summaries: Optional[Tuple[LayerSummary, ...]] = None

    # ------------------------------------------------------------------ dunder
    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self) -> Iterator[LayerSpec]:
        return iter(self.layers)

    def __getitem__(self, index: int) -> LayerSpec:
        return self.layers[index]

    def __repr__(self) -> str:
        return (
            f"Architecture(name={self.name!r}, input_shape={self.input_shape}, "
            f"layers={len(self.layers)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Architecture):
            return NotImplemented
        return (
            self.input_shape == other.input_shape
            and self.input_bytes_per_element == other.input_bytes_per_element
            and self.layers == other.layers
            and self.skip_edges == other.skip_edges
        )

    def __hash__(self) -> int:
        return hash(
            (self.input_shape, self.input_bytes_per_element, self.layers, self.skip_edges)
        )

    # ------------------------------------------------------------------ analysis
    def row_ids(self) -> Tuple[int, ...]:
        """The architecture's rows of the layer table, in layer order (cached).

        Every costing and summary of the architecture reads them, so the
        skip-edge shape check runs here, once per architecture.
        """
        if self._row_ids is None:
            rows = LAYER_TABLE.chain(LAYER_TABLE.spec_ids(self.layers), self.input_shape)
            check_skip_edges(self.input_shape, rows, self.skip_edges)
            self._row_ids = tuple(rows)
        return self._row_ids

    def summarize(self) -> Tuple[LayerSummary, ...]:
        """Run shape inference and return per-layer summaries (cached).

        Each record is a view of the layer's table row at its position.
        """
        if self._summaries is None:
            self._summaries = tuple(
                dataclasses.replace(LAYER_TABLE.records[row], index=index)
                for index, row in enumerate(self.row_ids())
            )
        return self._summaries

    def partition_graph(self) -> PartitionGraph:
        """Cut-legality graph of this architecture (see :mod:`repro.nn.graph`)."""
        return self._partition_graph

    @property
    def output_shape(self) -> Shape:
        """Shape of the final layer's output."""
        return self.summarize()[-1].output_shape

    @property
    def input_bytes(self) -> int:
        """Size of the raw network input in bytes (the All-Cloud upload size)."""
        return element_count(self.input_shape) * self.input_bytes_per_element

    @property
    def total_params(self) -> int:
        """Total trainable parameter count."""
        return sum(s.params for s in self.summarize())

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations per inference."""
        return sum(s.macs for s in self.summarize())

    @property
    def depth(self) -> int:
        """Number of parameterised (conv, conv1d and fc) layers."""
        return sum(
            1 for s in self.summarize() if s.layer_type in ("conv", "conv1d", "fc")
        )

    def count_layers(self, layer_type: str) -> int:
        """Number of layers of the given family."""
        return sum(1 for s in self.summarize() if s.layer_type == layer_type)

    # ------------------------------------------------------------------ serialization
    def to_dict(self) -> Dict:
        """Serialisable description of the architecture."""
        data = {
            "name": self.name,
            "input_shape": list(self.input_shape),
            "input_bytes_per_element": self.input_bytes_per_element,
            "layers": [layer.to_dict() for layer in self.layers],
        }
        if self.skip_edges:
            data["skip_edges"] = [list(edge) for edge in self.skip_edges]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Architecture":
        """Reconstruct an architecture from :meth:`to_dict` output."""
        layers = [layer_from_dict(entry) for entry in data["layers"]]
        return cls(
            data["name"],
            tuple(data["input_shape"]),
            layers,
            input_bytes_per_element=data.get("input_bytes_per_element", 1),
            skip_edges=tuple(
                tuple(edge) for edge in data.get("skip_edges", ())
            ),
        )

    def describe(self) -> str:
        """Multi-line human-readable summary (one row per layer)."""
        lines = [
            f"{self.name}: input {self.input_shape}, "
            f"{self.total_params:,} params, {self.total_macs:,} MACs"
        ]
        for summary in self.summarize():
            lines.append(
                f"  [{summary.index:>2}] {summary.name:<12} {summary.layer_type:<8}"
                f" out={summary.output_shape!s:<18} params={summary.params:>12,}"
                f" macs={summary.macs:>14,} out_kB={summary.output_bytes / 1024:,.1f}"
            )
        return "\n".join(lines)


class LayerRows:
    """A candidate pool read as rows of :data:`~repro.nn.table.LAYER_TABLE` ids.

    ``ids`` is an ``(m, L)`` ``int64`` matrix whose row ``i`` holds
    candidate ``i``'s table rows in layer order, padded to the longest
    candidate with the table's padding row 0; ``lengths[i]`` is its layer
    count and ``flat`` the unpadded rows of the whole pool, in pool order
    then layer order.  ``names``, ``skip_edges``, ``input_bytes_per_element``
    and the cut-legality ``graphs`` are per candidate.  Evaluation gathers
    table columns with these ids.  The pool is also a sequence of
    :class:`Architecture` objects, each built on first access, for callers
    that need one.
    """

    def __init__(
        self,
        chains: Sequence[Sequence[int]],
        names: Sequence[str],
        graphs: Sequence[PartitionGraph],
        input_bytes_per_element: Sequence[int],
        architectures: Optional[Sequence[Optional[Architecture]]] = None,
    ):
        self.chains = [tuple(chain) for chain in chains]
        self.names = list(names)
        self.graphs = list(graphs)
        self.skip_edges = [graph.skip_edges for graph in self.graphs]
        self.input_bytes_per_element = list(input_bytes_per_element)
        self._architectures = list(architectures or [None] * len(self.chains))
        self.lengths = [len(chain) for chain in self.chains]
        self.flat = np.array(list(itertools.chain.from_iterable(self.chains)), np.int64)
        self.ids = np.zeros((len(self.chains), max(self.lengths, default=0)), np.int64)
        self.ids[np.arange(self.ids.shape[1]) < np.array(self.lengths)[:, None]] = self.flat

    @classmethod
    def of(cls, pool: "Sequence[Architecture] | LayerRows") -> "LayerRows":
        """``pool`` itself, or its architectures read through the table."""
        if isinstance(pool, LayerRows):
            return pool
        archs = list(pool)
        return cls(
            [a.row_ids() for a in archs],
            [a.name for a in archs],
            [a.partition_graph() for a in archs],
            [a.input_bytes_per_element for a in archs],
            archs,
        )

    def take(self, indices: Sequence[int]) -> "LayerRows":
        """The sub-pool of the given candidates, in the given order."""
        indices = list(indices)
        if indices == list(range(len(self))):
            return self
        columns = (self.chains, self.names, self.graphs, self.input_bytes_per_element)
        return LayerRows(
            *([column[i] for i in indices] for column in columns),
            [self._architectures[i] for i in indices],
        )

    def __len__(self) -> int:
        return len(self.chains)

    def __getitem__(self, index: int) -> Architecture:
        index = operator.index(index)  # one candidate; a slice is a TypeError
        if self._architectures[index] is None:
            chain = self.chains[index]
            layers = [LAYER_TABLE.specs[LAYER_TABLE.row_specs[row]] for row in chain]
            shape = LAYER_TABLE.records[chain[0]].input_shape
            built = Architecture(self.names[index], shape, layers, *self._extras(index))
            built._row_ids = chain  # decode_pool checked its skip edges
            self._architectures[index] = built
        return self._architectures[index]

    def _extras(self, index: int) -> tuple:
        return self.input_bytes_per_element[index], self.skip_edges[index]

    @cached_property
    def offsets(self) -> List[int]:
        """Start of each candidate in :attr:`flat`, then its total length."""
        return [0, *itertools.accumulate(self.lengths)]

    def keys(self) -> List[tuple]:
        """Per candidate, a key equal exactly for equal architectures."""
        return [(chain, *self._extras(i)) for i, chain in enumerate(self.chains)]

    def sums(self, column: str) -> List[int]:
        """Per candidate, the exact integer sum of a table column over its layers."""
        return getattr(LAYER_TABLE, column)[self.ids].sum(axis=1).tolist()

    def split(self, values: np.ndarray) -> List[np.ndarray]:
        """Per-candidate read-only blocks of a per-layer array over :attr:`flat`.

        The blocks are views: callers (the engine's layer cache above all)
        share them, so nobody may write into another's values.
        """
        values.flags.writeable = False
        offsets = self.offsets
        return [values[start:end] for start, end in zip(offsets[:-1], offsets[1:])]
