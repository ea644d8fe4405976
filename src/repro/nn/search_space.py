"""The LENS experimental search space (Fig. 4 of the paper).

The space is derived from VGG-16 and consists of five convolutional blocks,
each followed by an *optional* 2x2 max-pooling layer.  For every block the
search varies

* the number of convolutional layers: 1, 2 or 3,
* the kernel size: 3, 5 or 7,
* the number of filters: 24, 36, 64, 96, 128 or 256.

After the convolutional blocks, at least one of two fully-connected layers
exists, each with a width drawn from {256, 512, 1024, 2048, 4096, 8192}.  All
layers use ReLU except the final softmax classifier, batch normalisation is
applied at every convolutional layer, and every architecture must contain at
least four pooling layers (the paper adds this constraint "to highlight cases
that can benefit from layer distribution").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import SkipEdge
from repro.nn.layers import Conv2D, Dense, Flatten, LayerSpec, MaxPool2D, interned
from repro.nn.spaces import EncodedSearchSpace

#: Default choices, exactly as given in the paper's Fig. 4 description.
DEFAULT_LAYERS_PER_BLOCK = (1, 2, 3)
DEFAULT_KERNEL_SIZES = (3, 5, 7)
DEFAULT_FILTER_COUNTS = (24, 36, 64, 96, 128, 256)
DEFAULT_FC_UNITS = (256, 512, 1024, 2048, 4096, 8192)
DEFAULT_NUM_BLOCKS = 5
DEFAULT_MIN_POOL_LAYERS = 4


class LensSearchSpace(EncodedSearchSpace):
    """VGG-derived search space used by the LENS experiments.

    Registered as ``"lens-vgg"`` in :data:`repro.api.registry.SEARCH_SPACES`;
    the generic sampling/encoding machinery lives in
    :class:`~repro.nn.spaces.EncodedSearchSpace`, this class only declares
    the paper's genes, constraints and decoding.  Decoded architectures are
    plain chains (no skip edges), so every layer boundary is cut-legal and
    the partitioner's graph-aware enumeration reduces to the paper's
    linear-chain rule.

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

    def __init__(
        self,
        num_blocks: int = DEFAULT_NUM_BLOCKS,
        layers_per_block: Sequence[int] = DEFAULT_LAYERS_PER_BLOCK,
        kernel_sizes: Sequence[int] = DEFAULT_KERNEL_SIZES,
        filter_counts: Sequence[int] = DEFAULT_FILTER_COUNTS,
        fc_units: Sequence[int] = DEFAULT_FC_UNITS,
        min_pool_layers: int = DEFAULT_MIN_POOL_LAYERS,
        num_classes: int = 10,
        accuracy_input_shape: Tuple[int, int, int] = (3, 32, 32),
        performance_input_shape: Tuple[int, int, int] = (3, 224, 224),
    ):
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if min_pool_layers > num_blocks:
            raise ValueError(
                f"min_pool_layers ({min_pool_layers}) cannot exceed num_blocks ({num_blocks})"
            )
        self.num_blocks = int(num_blocks)
        self.layers_per_block = tuple(int(v) for v in layers_per_block)
        self.kernel_sizes = tuple(int(v) for v in kernel_sizes)
        self.filter_counts = tuple(int(v) for v in filter_counts)
        self.fc_units = tuple(int(v) for v in fc_units)
        self.min_pool_layers = int(min_pool_layers)
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
        self._fc_present_positions = [
            self.encoding.gene_position(f"fc{i}_present") for i in (1, 2)
        ]
        self._true_index = self.encoding.gene("fc1_present").index_of(True)

    # ------------------------------------------------------------------ encoding
    def _build_encoding(self) -> EncodingScheme:
        genes: List[Gene] = []
        for block in range(1, self.num_blocks + 1):
            genes.append(Gene(f"block{block}_layers", self.layers_per_block))
            genes.append(Gene(f"block{block}_kernel", self.kernel_sizes))
            genes.append(Gene(f"block{block}_filters", self.filter_counts))
            genes.append(Gene(f"block{block}_pool", (False, True)))
        genes.append(Gene("fc1_present", (False, True)))
        genes.append(Gene("fc1_units", self.fc_units))
        genes.append(Gene("fc2_present", (False, True)))
        genes.append(Gene("fc2_units", self.fc_units))
        return EncodingScheme(genes)

    # ------------------------------------------------------------------ validity
    def pool_count(self, indices: Sequence[int]) -> int:
        """Number of pooling layers encoded by the given genotype."""
        arr = self.encoding.validate_indices(indices)
        return int(np.count_nonzero(arr[self._pool_positions] == self._true_index))

    def _satisfied(self, arr: np.ndarray) -> bool:
        """The paper's two constraints on a validated genotype.

        At least ``min_pool_layers`` pooling layers, and at least one of the
        two fully-connected layers present.
        """
        genes = arr.tolist()
        on = self._true_index
        if [genes[p] for p in self._pool_positions].count(on) < self.min_pool_layers:
            return False
        return any(genes[p] == on for p in self._fc_present_positions)

    def _repair_in_place(self, arr: np.ndarray, rng: np.random.Generator) -> None:
        """Repair a validated genotype in place.

        Missing pooling layers are switched on at uniformly random blocks and
        the first fully-connected layer is enabled if neither is present.
        """
        genes = arr.tolist()
        on = self._true_index
        off = [p for p in self._pool_positions if genes[p] != on]
        missing = self.min_pool_layers - (len(self._pool_positions) - len(off))
        if missing > 0:
            for chosen in rng.choice(len(off), size=missing, replace=False).tolist():
                arr[off[chosen]] = on
        if not any(genes[p] == on for p in self._fc_present_positions):
            arr[self._fc_present_positions[0]] = on

    # ------------------------------------------------------------------ decoding
    def _layer_stack(
        self, arr: np.ndarray, num_classes: int
    ) -> Tuple[List[LayerSpec], Tuple[SkipEdge, ...]]:
        """Conv blocks with optional pools, then the present FC layers and the classifier."""
        genes = iter(arr.tolist())  # gene values in _build_encoding order
        layers: List[LayerSpec] = []
        for block in range(1, self.num_blocks + 1):
            depth = self.layers_per_block[next(genes)]
            kernel = self.kernel_sizes[next(genes)]
            filters = self.filter_counts[next(genes)]
            for layer_idx in range(1, depth + 1):
                layers.append(
                    interned(
                        Conv2D,
                        name=f"conv{block}_{layer_idx}",
                        out_channels=filters,
                        kernel_size=kernel,
                        stride=1,
                        padding="same",
                        batch_norm=True,
                    )
                )
            if next(genes) == self._true_index:
                layers.append(
                    interned(MaxPool2D, name=f"pool{block}", pool_size=2)
                )
        layers.append(interned(Flatten, name="flatten"))
        fc_index = 0
        for _ in (1, 2):
            present = next(genes) == self._true_index
            units = self.fc_units[next(genes)]
            if present:
                fc_index += 1
                layers.append(interned(Dense, name=f"fc{fc_index}", units=units))
        layers.append(
            interned(Dense, name="classifier", units=num_classes, activation="softmax")
        )
        return layers, ()

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable description of the space and its constraints."""
        lines = [
            f"LensSearchSpace: {self.num_blocks} conv blocks, "
            f"{self.total_combinations():,} unconstrained genotypes",
            f"  layers per block: {list(self.layers_per_block)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  filter counts: {list(self.filter_counts)}",
            f"  fc units: {list(self.fc_units)}",
            f"  constraints: >= {self.min_pool_layers} pooling layers, >= 1 FC layer",
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
            "num_classes": self.num_classes,
            "accuracy_input_shape": list(self.accuracy_input_shape),
            "performance_input_shape": list(self.performance_input_shape),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LensSearchSpace":
        """Reconstruct a search space from :meth:`to_dict` output."""
        return cls(
            num_blocks=data["num_blocks"],
            layers_per_block=data["layers_per_block"],
            kernel_sizes=data["kernel_sizes"],
            filter_counts=data["filter_counts"],
            fc_units=data["fc_units"],
            min_pool_layers=data["min_pool_layers"],
            num_classes=data["num_classes"],
            accuracy_input_shape=tuple(data["accuracy_input_shape"]),
            performance_input_shape=tuple(data["performance_input_shape"]),
        )
