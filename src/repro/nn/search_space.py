"""Block search spaces: stacks of convolutional blocks with optional pools.

The paper's Fig. 4 space is a stack of VGG-style blocks.  For every block
the search varies the number of convolutional layers, their kernel size and
their filter count, and whether a max-pooling layer follows the block;
optional fully-connected layers and the softmax classifier follow the
blocks.  Batch normalisation is applied at every convolutional layer, and
every architecture must contain at least ``min_pool_layers`` pooling layers
(the paper adds this constraint "to highlight cases that can benefit from
layer distribution").  :class:`BlockSearchSpace` implements that design
once; its subclasses only declare data:

* :class:`LensSearchSpace` (``"lens-vgg"``) — the paper's space: five
  ``Conv2D`` blocks of 1-3 layers, kernels 3/5/7, 24-256 filters and an
  optional 2x2 max-pool, at least four pools, then two optional
  fully-connected layers of 256-8192 units of which at least one exists;
* :class:`SeqConv1DSearchSpace` (``"seq-conv1d"``) — a 1-D workload
  (keyword spotting, IMU activity recognition): four ``Conv1D`` blocks with
  an optional 4x max-pool, at least three pools, then one optional
  fully-connected layer.

Decoded architectures are plain chains (no skip edges), so every layer
boundary is cut-legal and the partitioner's graph-aware enumeration reduces
to the paper's linear-chain rule.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Type

import numpy as np

from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import SkipEdge
from repro.nn.layers import (
    Conv1D,
    Conv2D,
    Dense,
    Flatten,
    LayerSpec,
    MaxPool1D,
    MaxPool2D,
)
from repro.nn.spaces import EncodedSearchSpace
from repro.nn.table import LAYER_TABLE

#: Choices of the pool and fully-connected switch genes.
_SWITCH = (False, True)


class BlockSearchSpace(EncodedSearchSpace):
    """Convolutional blocks with optional pools, then optional FC layers.

    The genotype holds, per block, a layer-count, a kernel, a filter and a
    pool gene, then a present and a units gene per fully-connected layer.
    A valid genotype enables at least ``min_pool_layers`` pools and at least
    ``min_fc_layers`` fully-connected layers.  Subclasses declare the design
    as data, as class attributes or in ``__init__`` before calling
    ``super().__init__()``:

    * ``conv_layer`` / ``pool_layer`` — the block's layer classes, and
      ``pool_size`` — the pooling window (and stride);
    * ``num_blocks``, ``layers_per_block``, ``kernel_sizes``,
      ``filter_counts`` — the block genes' choices;
    * ``num_fc_layers``, ``min_fc_layers``, ``fc_units`` — the head genes;
    * ``min_pool_layers``, and the classifier width and input shapes every
      :class:`~repro.nn.spaces.EncodedSearchSpace` declares.
    """

    conv_layer: Type[LayerSpec]
    pool_layer: Type[LayerSpec]
    pool_size: int
    num_blocks: int
    layers_per_block: Tuple[int, ...]
    kernel_sizes: Tuple[int, ...]
    filter_counts: Tuple[int, ...]
    num_fc_layers: int
    min_fc_layers: int
    fc_units: Tuple[int, ...]
    min_pool_layers: int

    #: Index of ``True`` in the switch genes.
    _true_index = _SWITCH.index(True)

    def __init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.min_pool_layers > self.num_blocks:
            raise ValueError(
                f"min_pool_layers ({self.min_pool_layers}) cannot exceed "
                f"num_blocks ({self.num_blocks})"
            )
        self.encoding = self._build_encoding()
        # Gene positions the validity rule and repair read, as Python ints:
        # the hooks run on ``arr.tolist()`` for every genotype a search draws.
        self._pool_positions = [
            self.encoding.gene_position(f"block{block}_pool")
            for block in range(1, self.num_blocks + 1)
        ]
        self._fc_present_positions = [
            self.encoding.gene_position(f"fc{fc}_present")
            for fc in range(1, self.num_fc_layers + 1)
        ]
        # Every layer a block or head gene can choose, so that decoding
        # reads a genotype's layers by gene value.
        blocks = range(1, self.num_blocks + 1)
        self._convs = {
            (block, index, filters, kernel): LAYER_TABLE.spec(
                self.conv_layer, name=f"conv{block}_{index}", out_channels=filters,
                kernel_size=kernel, padding="same", batch_norm=True,
            )
            for block in blocks
            for index in range(1, max(self.layers_per_block) + 1)
            for filters in self.filter_counts
            for kernel in self.kernel_sizes
        }
        self._pools = [
            LAYER_TABLE.spec(self.pool_layer, name=f"pool{block}", pool_size=self.pool_size)
            for block in blocks
        ]
        self._fcs = {
            (index, units): LAYER_TABLE.spec(Dense, name=f"fc{index}", units=units)
            for index in range(1, self.num_fc_layers + 1)
            for units in self.fc_units
        }

    # ------------------------------------------------------------------ encoding
    def _build_encoding(self) -> EncodingScheme:
        genes: List[Gene] = []
        for block in range(1, self.num_blocks + 1):
            genes.append(Gene(f"block{block}_layers", self.layers_per_block))
            genes.append(Gene(f"block{block}_kernel", self.kernel_sizes))
            genes.append(Gene(f"block{block}_filters", self.filter_counts))
            genes.append(Gene(f"block{block}_pool", _SWITCH))
        for fc in range(1, self.num_fc_layers + 1):
            genes.append(Gene(f"fc{fc}_present", _SWITCH))
            genes.append(Gene(f"fc{fc}_units", self.fc_units))
        return EncodingScheme(genes)

    # ------------------------------------------------------------------ validity
    def _satisfied(self, arr: np.ndarray) -> bool:
        """At least ``min_pool_layers`` pools and ``min_fc_layers`` FC layers."""
        genes = arr.tolist()
        on = self._true_index
        if [genes[p] for p in self._pool_positions].count(on) < self.min_pool_layers:
            return False
        fc = [genes[p] for p in self._fc_present_positions].count(on)
        return fc >= self.min_fc_layers

    def _repair_in_place(self, arr: np.ndarray, rng: np.random.Generator) -> None:
        """Repair a validated genotype in place.

        Missing pooling layers are switched on at uniformly random blocks
        (one ``rng.choice`` draw), and missing fully-connected layers are
        enabled in order, first absent first.
        """
        genes = arr.tolist()
        on = self._true_index
        off = [p for p in self._pool_positions if genes[p] != on]
        missing = self.min_pool_layers - (len(self._pool_positions) - len(off))
        if missing > 0:
            for chosen in rng.choice(len(off), size=missing, replace=False).tolist():
                arr[off[chosen]] = on
        absent = [p for p in self._fc_present_positions if genes[p] != on]
        missing = self.min_fc_layers - (len(self._fc_present_positions) - len(absent))
        if missing > 0:
            for position in absent[:missing]:
                arr[position] = on

    # ------------------------------------------------------------------ decoding
    def _layer_stack(
        self, arr: np.ndarray, num_classes: int
    ) -> Tuple[List[LayerSpec], Tuple[SkipEdge, ...]]:
        """Conv blocks with optional pools, then the present FC layers and the classifier."""
        genes = iter(arr.tolist())  # gene values in _build_encoding order
        on = self._true_index
        layers: List[LayerSpec] = []
        for block in range(1, self.num_blocks + 1):
            depth = self.layers_per_block[next(genes)]
            kernel = self.kernel_sizes[next(genes)]
            filters = self.filter_counts[next(genes)]
            layers += [self._convs[block, i, filters, kernel] for i in range(1, depth + 1)]
            if next(genes) == on:
                layers.append(self._pools[block - 1])
        layers.append(LAYER_TABLE.spec(Flatten, name="flatten"))
        fc_index = 0
        for _ in range(self.num_fc_layers):
            present = next(genes) == on
            units = self.fc_units[next(genes)]
            if present:
                fc_index += 1
                layers.append(self._fcs[fc_index, units])
        layers.append(
            LAYER_TABLE.spec(Dense, name="classifier", units=num_classes, activation="softmax")
        )
        return layers, ()

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable description of the space and its constraints."""
        constraints = f">= {self.min_pool_layers} pooling layers"
        if self.min_fc_layers:
            constraints += f", >= {self.min_fc_layers} FC layer"
        lines = [
            f"{type(self).__name__}: {self.num_blocks} "
            f"{self.conv_layer.__name__} blocks, "
            f"{self.total_combinations():,} unconstrained genotypes",
            f"  layers per block: {list(self.layers_per_block)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  filter counts: {list(self.filter_counts)}",
            f"  optional pools: {self.pool_layer.__name__}, window {self.pool_size}",
            f"  fc units: {list(self.fc_units)}, up to {self.num_fc_layers} FC layers",
            f"  constraints: {constraints}",
        ]
        return "\n".join(lines)


class LensSearchSpace(BlockSearchSpace):
    """VGG-derived search space used by the LENS experiments (Fig. 4).

    Registered as ``"lens-vgg"`` in :data:`repro.api.registry.SEARCH_SPACES`.
    The defaults are the paper's; the knobs build reduced variants.

    Parameters
    ----------
    num_blocks:
        Number of convolutional blocks (5 in the paper).
    layers_per_block / kernel_sizes / filter_counts / fc_units:
        Admissible values for the per-block and fully-connected genes.
    min_pool_layers:
        Minimum number of pooling layers any valid architecture must contain.
    num_classes:
        Width of the final softmax classifier (CIFAR-10 -> 10).
    accuracy_input_shape:
        Input shape used when decoding models for *training / accuracy*
        estimation (CIFAR-10 32x32 RGB images in the paper).
    performance_input_shape:
        Input shape used when decoding models for *latency / energy*
        estimation (224x224x3, i.e. 147 kB, "to reflect realistic scenarios").
    """

    space_name = "lens-vgg"
    #: The historical ``lens-`` prefix (rather than the registry key
    #: ``lens-vgg``) keeps names in previously stored outcomes stable.
    name_prefix = "lens"
    conv_layer = Conv2D
    pool_layer = MaxPool2D
    pool_size = 2
    num_fc_layers = 2
    min_fc_layers = 1

    def __init__(
        self,
        num_blocks: int = 5,
        layers_per_block: Sequence[int] = (1, 2, 3),
        kernel_sizes: Sequence[int] = (3, 5, 7),
        filter_counts: Sequence[int] = (24, 36, 64, 96, 128, 256),
        fc_units: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192),
        min_pool_layers: int = 4,
        num_classes: int = 10,
        accuracy_input_shape: Tuple[int, int, int] = (3, 32, 32),
        performance_input_shape: Tuple[int, int, int] = (3, 224, 224),
    ):
        self.num_blocks = int(num_blocks)
        self.layers_per_block = tuple(int(v) for v in layers_per_block)
        self.kernel_sizes = tuple(int(v) for v in kernel_sizes)
        self.filter_counts = tuple(int(v) for v in filter_counts)
        self.fc_units = tuple(int(v) for v in fc_units)
        self.min_pool_layers = int(min_pool_layers)
        self.num_classes = int(num_classes)
        self.accuracy_input_shape = tuple(accuracy_input_shape)
        self.performance_input_shape = tuple(performance_input_shape)
        super().__init__()


class SeqConv1DSearchSpace(BlockSearchSpace):
    """Sequence-model search space over 1-D convolutional blocks.

    Registered as ``"seq-conv1d"``.  Multi-channel sensor or audio streams
    are classified into 12 classes.  At least three pools are required so
    the sequence shrinks enough for edge/cloud splits to exist.  Accuracy is
    estimated on short ``(6, 256)`` training windows, while latency/energy
    analysis uses a full ``(6, 16000)`` streaming window (16k samples of
    6-channel 8-bit input = 96 kB uploaded under All-Cloud).
    """

    space_name = "seq-conv1d"
    conv_layer = Conv1D
    pool_layer = MaxPool1D
    pool_size = 4
    num_blocks = 4
    layers_per_block = (1, 2)
    kernel_sizes = (3, 5, 9)
    filter_counts = (16, 32, 64, 128)
    num_fc_layers = 1
    min_fc_layers = 0
    fc_units = (64, 128, 256)
    min_pool_layers = 3
    num_classes = 12
    accuracy_input_shape = (6, 256)
    performance_input_shape = (6, 16000)
