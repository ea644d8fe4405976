"""ResNet-style residual search space (``"resnet-v1"``).

The space searches over a stem convolution followed by ``num_stages``
residual stages.  Stage ``s`` downsamples with a 2x2 max-pool, adapts the
channel count with a *transition* convolution, and then applies 1-3
residual blocks of two same-shaped convolutions each:

.. code-block:: text

    x ── pool ── transition ──┬── conv_a ── conv_b ──(+)── ...
                              └───────────────────────┘
                                  identity skip edge

Because the skip path is an identity (channels are changed only by the
transition layer, never inside a block), every residual add joins tensors
of identical shape, and each block contributes one
``(block_input, conv_b)`` skip edge to the decoded
:class:`~repro.nn.architecture.Architecture`.  The partitioner therefore
may cut *between* blocks (the skip tensor is exactly the transmitted
tensor) but never *inside* one — the constraint the linear-chain rule of
the original partitioner could not express.

Per-stage genes: number of residual blocks, kernel size and channel width.
Head genes: an optional hidden fully-connected layer and its width.  Every
genotype is structurally valid (pooling is built in, the classifier always
exists), so ``is_valid`` is always true and ``repair`` is the identity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import SkipEdge
from repro.nn.layers import Conv2D, Dense, Flatten, LayerSpec, MaxPool2D, interned
from repro.nn.spaces import EncodedSearchSpace

#: Default per-stage gene choices.
DEFAULT_BLOCKS_PER_STAGE = (1, 2, 3)
DEFAULT_KERNEL_SIZES = (3, 5)
DEFAULT_STAGE_WIDTHS = (24, 36, 64, 96, 128)
DEFAULT_FC_UNITS = (256, 512, 1024, 2048)
DEFAULT_NUM_STAGES = 4

#: Supported stage-downsampling styles (see :class:`ResNetSearchSpace`).
DOWNSAMPLE_STYLES = ("pool", "stride")


class ResNetSearchSpace(EncodedSearchSpace):
    """Residual CNN search space whose decoded models carry skip edges.

    Parameters
    ----------
    num_stages:
        Number of residual stages; each stage halves the spatial size.
    blocks_per_stage / kernel_sizes / stage_widths / fc_units:
        Admissible values for the per-stage and head genes.
    num_classes:
        Width of the final softmax classifier.
    accuracy_input_shape / performance_input_shape:
        Input shapes for accuracy estimation and latency/energy analysis,
        matching the conventions of the ``lens-vgg`` space.
    downsample:
        How each stage halves the spatial size: ``"pool"`` (the default — a
        2x2 max-pool followed by a 1x1 transition convolution) or
        ``"stride"`` (a single stride-2 3x3 convolution doing both jobs,
        the ResNet-paper style).
    projection_shortcuts:
        When true, the *first* block of every stage takes its shortcut from
        the stage input instead of the downsampled tensor, i.e. the skip
        edge spans the downsampling layers (a projection shortcut).  The
        spanning edge makes cuts at the stage boundary illegal for the
        partitioner, which changes which layers
        :class:`~repro.partition.graph.PartitionGraph` may cut after.
    """

    space_name = "resnet-v1"

    def __init__(
        self,
        num_stages: int = DEFAULT_NUM_STAGES,
        blocks_per_stage: Sequence[int] = DEFAULT_BLOCKS_PER_STAGE,
        kernel_sizes: Sequence[int] = DEFAULT_KERNEL_SIZES,
        stage_widths: Sequence[int] = DEFAULT_STAGE_WIDTHS,
        fc_units: Sequence[int] = DEFAULT_FC_UNITS,
        num_classes: int = 10,
        accuracy_input_shape: Tuple[int, int, int] = (3, 32, 32),
        performance_input_shape: Tuple[int, int, int] = (3, 224, 224),
        downsample: str = "pool",
        projection_shortcuts: bool = False,
    ):
        if num_stages < 1:
            raise ValueError(f"num_stages must be >= 1, got {num_stages}")
        if any(b < 1 for b in blocks_per_stage):
            raise ValueError(
                f"blocks_per_stage must be >= 1, got {tuple(blocks_per_stage)}"
            )
        if downsample not in DOWNSAMPLE_STYLES:
            raise ValueError(
                f"downsample must be one of {DOWNSAMPLE_STYLES}, got {downsample!r}"
            )
        self.downsample = str(downsample)
        self.projection_shortcuts = bool(projection_shortcuts)
        self.num_stages = int(num_stages)
        self.blocks_per_stage = tuple(int(v) for v in blocks_per_stage)
        self.kernel_sizes = tuple(int(v) for v in kernel_sizes)
        self.stage_widths = tuple(int(v) for v in stage_widths)
        self.fc_units = tuple(int(v) for v in fc_units)
        self.num_classes = int(num_classes)
        self.accuracy_input_shape = tuple(accuracy_input_shape)
        self.performance_input_shape = tuple(performance_input_shape)
        self.encoding = self._build_encoding()
        self._true_index = self.encoding.gene("fc_present").index_of(True)

    # ------------------------------------------------------------------ encoding
    def _build_encoding(self) -> EncodingScheme:
        genes: List[Gene] = []
        for stage in range(1, self.num_stages + 1):
            genes.append(Gene(f"stage{stage}_blocks", self.blocks_per_stage))
            genes.append(Gene(f"stage{stage}_kernel", self.kernel_sizes))
            genes.append(Gene(f"stage{stage}_width", self.stage_widths))
        genes.append(Gene("fc_present", (False, True)))
        genes.append(Gene("fc_units", self.fc_units))
        return EncodingScheme(genes)

    # ------------------------------------------------------------------ decoding
    def _layer_stack(
        self, arr: np.ndarray, num_classes: int
    ) -> Tuple[List[LayerSpec], Tuple[SkipEdge, ...]]:
        """Stem, residual stages and head, with every block's skip edge.

        Layers are emitted in execution order (the residual adds are fused
        into each block's second convolution); the skip edges mark every
        block's identity shortcut.
        """
        genes = arr.tolist()  # per stage (blocks, kernel, width), then the head
        layers: List[LayerSpec] = []
        skip_edges: List[SkipEdge] = []
        layers.append(
            interned(
                Conv2D,
                name="stem",
                out_channels=self.stage_widths[genes[2]],
                kernel_size=3,
                padding="same",
                batch_norm=True,
            )
        )
        for stage in range(1, self.num_stages + 1):
            offset = 3 * (stage - 1)
            blocks = self.blocks_per_stage[genes[offset]]
            kernel = self.kernel_sizes[genes[offset + 1]]
            width = self.stage_widths[genes[offset + 2]]
            stage_input = len(layers) - 1
            if self.downsample == "stride":
                # one stride-2 convolution downsamples and adapts channels
                layers.append(
                    interned(
                        Conv2D,
                        name=f"stage{stage}_downsample",
                        out_channels=width,
                        kernel_size=3,
                        stride=2,
                        padding="same",
                        batch_norm=True,
                    )
                )
            else:
                layers.append(
                    interned(MaxPool2D, name=f"stage{stage}_pool", pool_size=2)
                )
                layers.append(
                    interned(
                        Conv2D,
                        name=f"stage{stage}_transition",
                        out_channels=width,
                        kernel_size=1,
                        padding="same",
                        batch_norm=True,
                    )
                )
            for block in range(1, blocks + 1):
                block_input = len(layers) - 1
                if block == 1 and self.projection_shortcuts:
                    # the projection shortcut spans the downsampling layers,
                    # so the partitioner may not cut at the stage boundary
                    block_input = stage_input
                for half in ("a", "b"):
                    layers.append(
                        interned(
                            Conv2D,
                            name=f"stage{stage}_block{block}_{half}",
                            out_channels=width,
                            kernel_size=kernel,
                            padding="same",
                            batch_norm=True,
                        )
                    )
                skip_edges.append((block_input, len(layers) - 1))
        layers.append(interned(Flatten, name="flatten"))
        head = 3 * self.num_stages
        if genes[head] == self._true_index:
            layers.append(
                interned(Dense, name="fc1", units=self.fc_units[genes[head + 1]])
            )
        layers.append(
            interned(Dense, name="classifier", units=num_classes, activation="softmax")
        )
        return layers, tuple(skip_edges)

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable description of the space and its structure."""
        lines = [
            f"ResNetSearchSpace: {self.num_stages} residual stages, "
            f"{self.total_combinations():,} genotypes",
            f"  blocks per stage: {list(self.blocks_per_stage)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  stage widths: {list(self.stage_widths)}",
            f"  fc units: {list(self.fc_units)}",
            f"  downsampling: {self.downsample}"
            + (" (projection shortcuts)" if self.projection_shortcuts else ""),
            "  constraints: residual skip edges forbid cuts inside blocks"
            + (
                " and at stage boundaries"
                if self.projection_shortcuts
                else ""
            ),
        ]
        return "\n".join(lines)
