"""Architecture container and static (shape / cost) analysis.

An :class:`Architecture` is an ordered list of :class:`~repro.nn.layers.LayerSpec`
objects together with an input shape.  Calling :meth:`Architecture.summarize`
performs full shape inference and returns one :class:`LayerSummary` per layer
with everything the partitioning engine and the hardware predictors need:
input/output shapes, parameter counts, MAC counts and activation byte sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.nn.graph import PartitionGraph, SkipEdge
from repro.nn.layers import (
    BYTES_PER_ELEMENT,
    LayerSpec,
    Shape,
    element_count,
    layer_from_dict,
    shape_bytes,
)

#: Bound of the :func:`layer_summary` memo.  One process running a campaign
#: over the three registered search spaces fills ~17k entries (~600 B each).
SUMMARY_MEMO_SIZE = 1 << 15


@dataclass(frozen=True)
class LayerSummary:
    """Static analysis record for one layer within a concrete architecture.

    Attributes
    ----------
    index:
        Zero-based position of the layer within the architecture.
    name:
        Layer name (unique within the architecture).
    layer_type:
        Layer family identifier (``conv``, ``pool``, ``fc``, ...).
    input_shape / output_shape:
        Channels-first activation shapes entering and leaving the layer.
    params:
        Trainable parameter count.
    macs:
        Multiply-accumulate operations per inference.
    output_bytes:
        Size of the layer's output activation in bytes (what would be
        transmitted if the model were split right after this layer).
    weight_bytes:
        Size of the layer's parameters in bytes (memory traffic lower bound
        for memory-bound layers such as large fully-connected layers).
    is_partition_candidate:
        Whether the layer boundary is structurally eligible as a split point.
    """

    index: int
    name: str
    layer_type: str
    input_shape: Shape
    output_shape: Shape
    params: int
    macs: int
    output_bytes: int
    weight_bytes: int
    is_partition_candidate: bool

    @property
    def flops(self) -> int:
        """Floating point operations (2 per MAC)."""
        return 2 * self.macs

    @cached_property
    def output_elements(self) -> int:
        """Number of scalars in the output activation (computed once)."""
        return element_count(self.output_shape)

    @cached_property
    def input_elements(self) -> int:
        """Number of scalars in the input activation (computed once)."""
        return element_count(self.input_shape)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "name": self.name,
            "layer_type": self.layer_type,
            "input_shape": list(self.input_shape),
            "output_shape": list(self.output_shape),
            "params": self.params,
            "macs": self.macs,
            "output_bytes": self.output_bytes,
            "weight_bytes": self.weight_bytes,
            "is_partition_candidate": self.is_partition_candidate,
        }


def summarize_layer(index: int, layer: LayerSpec, input_shape: Shape) -> LayerSummary:
    """Static analysis of ``layer`` at position ``index`` fed ``input_shape``."""
    output_shape = layer.output_shape(input_shape)
    return LayerSummary(
        index=index,
        name=layer.name,
        layer_type=layer.layer_type,
        input_shape=input_shape,
        output_shape=output_shape,
        params=layer.param_count(input_shape),
        macs=layer.macs(input_shape),
        output_bytes=shape_bytes(output_shape),
        weight_bytes=layer.weight_bytes(input_shape),
        is_partition_candidate=layer.is_partition_candidate,
    )


#: The memo behind :meth:`Architecture.summarize`, keyed by value on
#: ``(index, layer, input_shape)``: a summary depends on nothing else, and
#: it is frozen, so every architecture holding that layer at that position
#: with that input shares one record.  Layer specs whose fields compare
#: equal (``64`` and ``64.0``) share entries here, as they already make
#: equal architectures for the engine caches.
layer_summary = lru_cache(maxsize=SUMMARY_MEMO_SIZE)(summarize_layer)


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
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {duplicates}")
        # PartitionGraph normalises and bounds-checks the edges once; the
        # graph is immutable, so every partition_graph() call shares it.
        self._partition_graph = PartitionGraph(
            num_layers=len(self.layers), skip_edges=tuple(skip_edges)
        )
        self.skip_edges: Tuple[SkipEdge, ...] = self._partition_graph.skip_edges
        self._summaries: Optional[Tuple[LayerSummary, ...]] = None
        self._hash: Optional[int] = None

    def with_input_shape(self, input_shape: Shape) -> "Architecture":
        """The same layer stack fed ``input_shape``.

        Shares this architecture's name, validated layers and partition
        graph, none of which depend on the input shape.
        """
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.input_shape = tuple(int(s) for s in input_shape)
        other._summaries = None
        other._hash = None
        return other

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
        # Hashing walks every layer spec; architectures are structurally
        # immutable, and they key every engine cache, so compute it once.
        if self._hash is None:
            self._hash = hash(
                (
                    self.input_shape,
                    self.input_bytes_per_element,
                    self.layers,
                    self.skip_edges,
                )
            )
        return self._hash

    # ------------------------------------------------------------------ analysis
    def summarize(self) -> Tuple[LayerSummary, ...]:
        """Run shape inference and return per-layer summaries (cached).

        Each record comes from the :func:`layer_summary` memo; the skip-edge
        shape check runs per architecture.
        """
        if self._summaries is None:
            summaries: List[LayerSummary] = []
            current_shape = self.input_shape
            for index, layer in enumerate(self.layers):
                summary = layer_summary(index, layer, current_shape)
                summaries.append(summary)
                current_shape = summary.output_shape
            for src, dst in self.skip_edges:
                src_shape = (
                    self.input_shape if src < 0 else summaries[src].output_shape
                )
                dst_shape = summaries[dst].output_shape
                if src_shape == dst_shape:
                    continue
                if _projection_stride(src_shape, dst_shape) is None:
                    raise ValueError(
                        f"skip edge ({src}, {dst}) joins incompatible shapes "
                        f"{src_shape} -> {dst_shape}; skip tensors merge "
                        "element-wise, directly or through a downsampling "
                        "projection"
                    )
            self._summaries = tuple(summaries)
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

