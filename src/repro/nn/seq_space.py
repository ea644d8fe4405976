"""1-D convolutional sequence search space (``"seq-conv1d"``).

A non-vision workload: multi-channel sensor/audio streams classified with a
stack of 1-D convolutional blocks — the kind of model deployed for keyword
spotting or IMU activity recognition on edge devices.  Each block varies

* the number of :class:`~repro.nn.layers.Conv1D` layers (1 or 2),
* the kernel size (3, 5 or 9 taps),
* the number of filters,
* whether a 4x max-pool follows the block.

Heads mirror the CNN spaces: an optional hidden fully-connected layer plus
the softmax classifier.  At least ``min_pool_layers`` pooling layers are
required so the sequence shrinks enough for edge/cloud splits to exist —
the same role the pooling constraint plays in the ``lens-vgg`` space.

Accuracy is estimated on short training windows
(``accuracy_input_shape=(6, 256)``), while latency/energy analysis uses a
full streaming window (``performance_input_shape=(6, 16000)``, 16k samples
of 6-channel 8-bit input = 96 kB uploaded under All-Cloud).  Decoded
architectures are plain chains, so every boundary is cut-legal.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import SkipEdge
from repro.nn.layers import Conv1D, Dense, Flatten, LayerSpec, MaxPool1D, interned
from repro.nn.spaces import EncodedSearchSpace

#: Default gene choices of the sequence space.
DEFAULT_LAYERS_PER_BLOCK = (1, 2)
DEFAULT_KERNEL_SIZES = (3, 5, 9)
DEFAULT_FILTER_COUNTS = (16, 32, 64, 128)
DEFAULT_FC_UNITS = (64, 128, 256)
DEFAULT_NUM_BLOCKS = 4
DEFAULT_MIN_POOL_LAYERS = 3
DEFAULT_POOL_SIZE = 4


class SeqConv1DSearchSpace(EncodedSearchSpace):
    """Sequence-model search space over 1-D convolutional blocks.

    Parameters
    ----------
    num_blocks:
        Number of convolutional blocks.
    layers_per_block / kernel_sizes / filter_counts / fc_units:
        Admissible values for the per-block and head genes.
    min_pool_layers:
        Minimum number of pooling layers any valid genotype must enable.
    pool_size:
        Window (and stride) of each pooling layer.
    num_classes:
        Width of the final softmax classifier (e.g. 12 keywords).
    accuracy_input_shape / performance_input_shape:
        ``(channels, length)`` input shapes for accuracy estimation and for
        latency/energy analysis.
    """

    space_name = "seq-conv1d"

    def __init__(
        self,
        num_blocks: int = DEFAULT_NUM_BLOCKS,
        layers_per_block: Sequence[int] = DEFAULT_LAYERS_PER_BLOCK,
        kernel_sizes: Sequence[int] = DEFAULT_KERNEL_SIZES,
        filter_counts: Sequence[int] = DEFAULT_FILTER_COUNTS,
        fc_units: Sequence[int] = DEFAULT_FC_UNITS,
        min_pool_layers: int = DEFAULT_MIN_POOL_LAYERS,
        pool_size: int = DEFAULT_POOL_SIZE,
        num_classes: int = 12,
        accuracy_input_shape: Tuple[int, int] = (6, 256),
        performance_input_shape: Tuple[int, int] = (6, 16000),
    ):
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if min_pool_layers > num_blocks:
            raise ValueError(
                f"min_pool_layers ({min_pool_layers}) cannot exceed "
                f"num_blocks ({num_blocks})"
            )
        self.num_blocks = int(num_blocks)
        self.layers_per_block = tuple(int(v) for v in layers_per_block)
        self.kernel_sizes = tuple(int(v) for v in kernel_sizes)
        self.filter_counts = tuple(int(v) for v in filter_counts)
        self.fc_units = tuple(int(v) for v in fc_units)
        self.min_pool_layers = int(min_pool_layers)
        self.pool_size = int(pool_size)
        self.num_classes = int(num_classes)
        self.accuracy_input_shape = tuple(accuracy_input_shape)
        self.performance_input_shape = tuple(performance_input_shape)
        self.encoding = self._build_encoding()
        # Gene positions the validity rule and repair read, as Python ints:
        # the hooks run on ``arr.tolist()`` for every genotype a search draws.
        self._pool_positions = [
            self.encoding.gene_position(f"block{block}_pool")
            for block in range(1, self.num_blocks + 1)
        ]
        self._true_index = self.encoding.gene("block1_pool").index_of(True)

    # ------------------------------------------------------------------ encoding
    def _build_encoding(self) -> EncodingScheme:
        genes: List[Gene] = []
        for block in range(1, self.num_blocks + 1):
            genes.append(Gene(f"block{block}_layers", self.layers_per_block))
            genes.append(Gene(f"block{block}_kernel", self.kernel_sizes))
            genes.append(Gene(f"block{block}_filters", self.filter_counts))
            genes.append(Gene(f"block{block}_pool", (False, True)))
        genes.append(Gene("fc_present", (False, True)))
        genes.append(Gene("fc_units", self.fc_units))
        return EncodingScheme(genes)

    # ------------------------------------------------------------------ validity
    def _satisfied(self, arr: np.ndarray) -> bool:
        """At least ``min_pool_layers`` of the block pools must be enabled."""
        genes = arr.tolist()
        pools = [genes[p] for p in self._pool_positions].count(self._true_index)
        return pools >= self.min_pool_layers

    def _repair_in_place(self, arr: np.ndarray, rng: np.random.Generator) -> None:
        """Switch on pooling at random blocks until the constraint holds."""
        genes = arr.tolist()
        off = [p for p in self._pool_positions if genes[p] != self._true_index]
        missing = self.min_pool_layers - (len(self._pool_positions) - len(off))
        if missing > 0:
            for chosen in rng.choice(len(off), size=missing, replace=False).tolist():
                arr[off[chosen]] = self._true_index

    # ------------------------------------------------------------------ decoding
    def _layer_stack(
        self, arr: np.ndarray, num_classes: int
    ) -> Tuple[List[LayerSpec], Tuple[SkipEdge, ...]]:
        """Conv1D blocks with optional pools, then the optional FC layer and the classifier."""
        genes = iter(arr.tolist())  # gene values in _build_encoding order
        layers: List[LayerSpec] = []
        for block in range(1, self.num_blocks + 1):
            depth = self.layers_per_block[next(genes)]
            kernel = self.kernel_sizes[next(genes)]
            filters = self.filter_counts[next(genes)]
            for layer_idx in range(1, depth + 1):
                layers.append(
                    interned(
                        Conv1D,
                        name=f"conv{block}_{layer_idx}",
                        out_channels=filters,
                        kernel_size=kernel,
                        padding="same",
                        batch_norm=True,
                    )
                )
            if next(genes) == self._true_index:
                layers.append(
                    interned(MaxPool1D, name=f"pool{block}", pool_size=self.pool_size)
                )
        layers.append(interned(Flatten, name="flatten"))
        present = next(genes) == self._true_index
        units = self.fc_units[next(genes)]
        if present:
            layers.append(interned(Dense, name="fc1", units=units))
        layers.append(
            interned(Dense, name="classifier", units=num_classes, activation="softmax")
        )
        return layers, ()

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable description of the space and its constraints."""
        lines = [
            f"SeqConv1DSearchSpace: {self.num_blocks} conv1d blocks, "
            f"{self.total_combinations():,} unconstrained genotypes",
            f"  layers per block: {list(self.layers_per_block)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  filter counts: {list(self.filter_counts)}",
            f"  fc units: {list(self.fc_units)}",
            f"  constraints: >= {self.min_pool_layers} pooling layers",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """Serialisable configuration of the space."""
        return {
            "num_blocks": self.num_blocks,
            "layers_per_block": list(self.layers_per_block),
            "kernel_sizes": list(self.kernel_sizes),
            "filter_counts": list(self.filter_counts),
            "fc_units": list(self.fc_units),
            "min_pool_layers": self.min_pool_layers,
            "pool_size": self.pool_size,
            "num_classes": self.num_classes,
            "accuracy_input_shape": list(self.accuracy_input_shape),
            "performance_input_shape": list(self.performance_input_shape),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SeqConv1DSearchSpace":
        """Reconstruct a search space from :meth:`to_dict` output."""
        return cls(
            num_blocks=data["num_blocks"],
            layers_per_block=data["layers_per_block"],
            kernel_sizes=data["kernel_sizes"],
            filter_counts=data["filter_counts"],
            fc_units=data["fc_units"],
            min_pool_layers=data["min_pool_layers"],
            pool_size=data["pool_size"],
            num_classes=data["num_classes"],
            accuracy_input_shape=tuple(data["accuracy_input_shape"]),
            performance_input_shape=tuple(data["performance_input_shape"]),
        )
