"""The encoding-backed base class every search space derives from.

Every workload the library can search over is a *search space*: an object
that can sample genotypes, project them into the optimizer's unit cube,
mutate them into neighbours, decode them into concrete
:class:`~repro.nn.architecture.Architecture` objects, and describe the
partition legality of what it decodes.  :class:`EncodedSearchSpace`
implements all of it on top of an :class:`~repro.nn.encoding.EncodingScheme`,
so a new workload only has to declare its genes, its validity rule and its
layer stack (``_layer_stack``).

Spaces are addressable by name through
:data:`repro.api.registry.SEARCH_SPACES` (``search_space="resnet-v1"`` on a
:class:`~repro.api.envelopes.SearchRequest`); the three built-ins are

* ``"lens-vgg"`` — the paper's VGG-derived CNN space
  (:class:`~repro.nn.search_space.LensSearchSpace`, Fig. 4);
* ``"resnet-v1"`` — residual stages whose skip edges constrain partitioning
  (:class:`~repro.nn.resnet_space.ResNetSearchSpace`);
* ``"seq-conv1d"`` — a 1-D convolutional sequence workload
  (:class:`~repro.nn.search_space.SeqConv1DSearchSpace`).
"""

from __future__ import annotations

import abc
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.architecture import (
    Architecture,
    LayerRows,
    check_skip_edges,
    require_unique_names,
)
from repro.nn.encoding import EncodingScheme
from repro.nn.graph import PartitionGraph, SkipEdge
from repro.nn.layers import LayerSpec
from repro.nn.table import LAYER_TABLE
from repro.utils.rng import SeedLike, ensure_rng

#: Name of the search space every request uses unless it says otherwise —
#: the paper's own VGG-derived space.  Schema-v1 request envelopes (which
#: predate the ``search_space`` field) upgrade to this value.
DEFAULT_SEARCH_SPACE = "lens-vgg"

#: Modulus of :meth:`EncodedSearchSpace.genotype_digest` (eight hex digits).
_DIGEST_BITS = 32

#: Public methods a space inherits and must not override.
_SEALED_METHODS = ("is_valid", "repair", "decode", "candidate_name")


class DecodedPool(NamedTuple):
    """A validated candidate pool, read in both input shapes.

    ``genotypes`` is the pool as an ``(m, num_genes)`` ``int64`` array;
    ``accuracy`` and ``performance`` are the pool's layer-table rows
    (:class:`~repro.nn.architecture.LayerRows`) under the accuracy and the
    performance input shape, sharing names and skip edges.  Item ``i`` of
    either is row ``i`` decoded with that input shape, built on access.
    """

    genotypes: np.ndarray
    accuracy: LayerRows
    performance: LayerRows


@lru_cache(maxsize=None)
def _digest_weights(width: int) -> np.ndarray:
    """``31 ** (width - 1 - i)`` modulo the digest modulus, for every position ``i``."""
    weights = np.array(
        [pow(31, width - 1 - i, 1 << _DIGEST_BITS) for i in range(width)],
        dtype=np.uint64,
    )
    weights.flags.writeable = False
    return weights


def _digests(rows: np.ndarray) -> List[int]:
    """:meth:`EncodedSearchSpace.genotype_digest` of every row, as integers.

    The digest folds ``digest * 31 + value + 1`` over a row modulo
    ``2**32``, which is the row's ``value + 1`` terms weighted by powers of
    31.  ``uint64`` arithmetic wraps modulo ``2**64``, a multiple of the
    modulus, so the weighted sum is exact modulo ``2**32`` for any row.
    """
    terms = (rows.astype(np.uint64) + np.uint64(1)) * _digest_weights(rows.shape[1])
    return (terms.sum(axis=1) % np.uint64(1 << _DIGEST_BITS)).tolist()


class EncodedSearchSpace(abc.ABC):
    """Search-space machinery over an :class:`EncodingScheme`.

    A space owns four responsibilities:

    * **sample** — draw valid genotypes (:meth:`sample`, :meth:`sample_batch`)
      and propose valid neighbours (:meth:`neighbours`);
    * **encode** — project genotypes into the optimizer's unit cube
      (:meth:`to_features`);
    * **decode** — turn genotypes into concrete architectures, once with the
      accuracy input shape and once with the performance input shape
      (:meth:`decode_for_accuracy` / :meth:`decode_for_performance`, or
      :meth:`decode_pool` for a whole candidate pool);
    * **partition legality** — describe which layer boundaries of a decoded
      architecture are cut-legal (:meth:`partition_graph`), so the
      partitioner never proposes a split that the workload's dataflow graph
      cannot express as a single-tensor transfer.

    ``space_name`` is the registry key the space answers to; decoded
    architectures and candidate names carry it for provenance (candidate
    names start with :attr:`name_prefix` when a space sets one).

    Subclasses must provide four attributes, set in ``__init__`` or as
    class data — ``encoding`` (the gene layout, one
    :class:`~repro.nn.encoding.Gene` per decision variable),
    ``num_classes`` (the classifier width) and
    ``accuracy_input_shape`` and ``performance_input_shape``
    (the channels-first input shapes :meth:`decode_for_accuracy` /
    :meth:`decode_for_performance` decode with) — and implement
    :meth:`_layer_stack`, plus — when the unconstrained genotype space
    contains invalid points — two hooks: :meth:`_satisfied` (the constraint
    rule) and :meth:`_repair_in_place` (its repair).  All three receive an
    ``int64`` array the encoding has already validated.  The public
    :meth:`is_valid`, :meth:`repair`, :meth:`decode` and
    :meth:`candidate_name` validate their input once and call the hooks;
    every space inherits them, and a subclass overriding one fails with
    ``TypeError`` when the class is created.  Sampling, batch sampling,
    mutation-based neighbourhoods, decoding and the unit-cube projection
    all come for free and behave identically across every space, which
    keeps strategies space-agnostic.
    """

    #: Registry key and display name of the space.
    space_name: str = "custom"

    #: Prefix of candidate names; ``None`` uses :attr:`space_name`.
    name_prefix: Optional[str] = None

    #: Required attributes (set them in ``__init__`` or as class data).
    encoding: EncodingScheme
    num_classes: int
    accuracy_input_shape: Tuple[int, ...]
    performance_input_shape: Tuple[int, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        overridden = [name for name in _SEALED_METHODS if name in vars(cls)]
        if overridden:
            raise TypeError(
                f"{cls.__name__} overrides {' and '.join(overridden)}; an "
                "EncodedSearchSpace implements its constraint as "
                "_satisfied(arr), its repair as _repair_in_place(arr, rng) and "
                "its layers as _layer_stack(arr, num_classes), names its "
                "candidates through name_prefix, and inherits the validating "
                "public methods"
            )

    # ------------------------------------------------------------------ encoding
    @property
    def num_genes(self) -> int:
        """Dimensionality of the genotype."""
        return self.encoding.num_genes

    def total_combinations(self) -> int:
        """Size of the unconstrained genotype space."""
        return self.encoding.total_combinations()

    def to_features(self, indices: Sequence[int]) -> np.ndarray:
        """Unit-cube feature vector for the Gaussian-process surrogates."""
        return self.encoding.to_unit(indices)

    # ------------------------------------------------------------------ validity
    def _satisfied(self, arr: np.ndarray) -> bool:
        """Whether a validated genotype meets the space's constraints."""
        return True

    def _repair_in_place(self, arr: np.ndarray, rng: np.random.Generator) -> None:
        """Minimally edit a validated genotype until :meth:`_satisfied` holds."""

    def is_valid(self, indices: Sequence[int]) -> bool:
        """Whether the genotype meets the space's constraints.

        Raises ``ValueError`` for a malformed genotype: wrong length, or an
        out-of-range or non-integral index.
        """
        return self._satisfied(self.encoding.validate_indices(indices))

    def repair(self, indices: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        """Return a valid genotype obtained by minimally editing ``indices``."""
        arr = self.encoding.validate_indices(indices).copy()
        self._repair_in_place(arr, ensure_rng(rng))
        return arr

    # ------------------------------------------------------------------ sampling
    def _repair_checked(self, arr: np.ndarray, rng: np.random.Generator) -> None:
        """Repair a drawn genotype in place, enforcing the repair contract."""
        self._repair_in_place(arr, rng)
        if not self._satisfied(arr):
            raise ValueError(
                f"{type(self).__name__}._repair_in_place left the genotype "
                "invalid; it must make _satisfied hold"
            )

    def sample(self, rng: SeedLike = None) -> np.ndarray:
        """Sample a uniformly random *valid* genotype."""
        rng = ensure_rng(rng)
        indices = self.encoding.sample_indices(rng)
        if not self._satisfied(indices):
            self._repair_checked(indices, rng)
        return indices

    def sample_batch(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Sample ``count`` valid genotypes as a ``(count, num_genes)`` array."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = ensure_rng(rng)
        return np.stack([self.sample(rng) for _ in range(count)])

    def neighbours(
        self, indices: Sequence[int], count: int, rng: SeedLike = None
    ) -> np.ndarray:
        """Sample ``count`` valid neighbours of a genotype (mutation + repair)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = ensure_rng(rng)
        result = []
        for _ in range(count):
            mutated = self.encoding.mutate(indices, rng)
            if not self._satisfied(mutated):
                self._repair_checked(mutated, rng)
            result.append(mutated)
        return np.stack(result)

    # ------------------------------------------------------------------ decoding
    @abc.abstractmethod
    def _layer_stack(
        self, arr: np.ndarray, num_classes: int
    ) -> Tuple[List[LayerSpec], Tuple[SkipEdge, ...]]:
        """The layers and skip edges a validated, valid genotype encodes.

        ``arr`` holds gene indices in encoding order; the stack does not
        depend on the input shape, so one stack serves both decodes.
        """

    def _checked(self, indices: Sequence[int]) -> np.ndarray:
        """A validated genotype that meets the constraints (``ValueError`` otherwise)."""
        arr = self.encoding.validate_indices(indices)
        if not self._satisfied(arr):
            raise ValueError(
                "genotype violates the search-space constraints; call repair() first"
            )
        return arr

    def decode(
        self,
        indices: Sequence[int],
        input_shape: Optional[Tuple[int, ...]] = None,
        num_classes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """Decode a genotype into a concrete :class:`Architecture`.

        Parameters
        ----------
        indices:
            Valid genotype (use :meth:`repair` beforehand if necessary);
            ``ValueError`` for a malformed or constraint-violating one.
        input_shape:
            Channels-first input shape; defaults to the accuracy input shape.
        num_classes:
            Classifier width; defaults to the space's ``num_classes``.
        name:
            Architecture name; defaults to :meth:`candidate_name`.
        """
        arr = self._checked(indices)
        num_classes = int(num_classes if num_classes is not None else self.num_classes)
        layers, skip_edges = self._layer_stack(arr, num_classes)
        return Architecture(
            name or self._names(arr[None, :])[0],
            tuple(input_shape or self.accuracy_input_shape),
            layers,
            skip_edges=skip_edges,
        )

    @cached_property
    def _decoded_graphs(self) -> Dict[tuple, PartitionGraph]:
        """One immutable cut-legality graph per (layer count, skip edges) decoded."""
        return {}

    def decode_pool(self, genotypes: Sequence[Sequence[int]]) -> DecodedPool:
        """Decode a candidate pool into layer-table rows, in both input shapes.

        The pool is validated as one array; a bad row raises the
        ``ValueError`` :meth:`decode` raises for it (the first bad row's,
        in pool order).  Each genotype's name, layer stack and skip edges
        are built once and read under both input shapes; no
        :class:`Architecture` is built unless a caller indexes the result.
        Item ``i`` equals :meth:`decode_for_accuracy` and
        :meth:`decode_for_performance` of row ``i``.
        """
        rows = self.encoding.validate_pool(genotypes)
        if not all(map(self._satisfied, rows)):
            for row in rows:
                self._checked(row)
        stacks: List[List[int]] = []  # spec ids, one stack per row
        graphs: List[PartitionGraph] = []
        shared = self._decoded_graphs
        for row in rows:
            layers, skip_edges = self._layer_stack(row, self.num_classes)
            require_unique_names([layer.name for layer in layers])
            key = (len(layers), tuple(skip_edges))
            graphs.append(shared.get(key) or shared.setdefault(key, PartitionGraph(*key)))
            stacks.append(LAYER_TABLE.spec_ids(layers))
        names = self._names(rows)

        def read(input_shape: Tuple[int, ...]) -> LayerRows:
            shape = tuple(int(s) for s in input_shape)
            chains = [LAYER_TABLE.chain(stack, shape) for stack in stacks]
            for chain, graph in zip(chains, graphs):
                check_skip_edges(shape, chain, graph.skip_edges)
            return LayerRows(chains, names, graphs, [1] * len(chains))

        return DecodedPool(
            rows, read(self.accuracy_input_shape), read(self.performance_input_shape)
        )

    def decode_for_accuracy(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the accuracy-estimation input shape."""
        return self.decode(
            indices, input_shape=self.accuracy_input_shape, name=name
        )

    def decode_for_performance(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the performance-analysis input shape."""
        return self.decode(
            indices, input_shape=self.performance_input_shape, name=name
        )

    # ------------------------------------------------------------------ partitioning
    def partition_graph(self, architecture: Architecture) -> PartitionGraph:
        """Cut-legality graph of a decoded architecture.

        The default trusts the skip edges the space baked into the decoded
        architecture; spaces with out-of-band constraints may override.
        """
        return architecture.partition_graph()

    # ------------------------------------------------------------------ misc
    @staticmethod
    def genotype_digest(indices: Sequence[int]) -> str:
        """Deterministic 8-hex-digit digest of a genotype.

        Shared by every space's :meth:`candidate_name`, so candidate naming
        can only change for all spaces at once.
        """
        row = np.asarray(indices, dtype=np.int64).reshape(1, -1)
        return f"{_digests(row)[0]:08x}"

    def _names(self, rows: np.ndarray) -> List[str]:
        """:meth:`candidate_name` of every row of a validated pool."""
        prefix = self.name_prefix or self.space_name
        return [f"{prefix}-{digest:08x}" for digest in _digests(rows)]

    def candidate_name(self, indices: Sequence[int]) -> str:
        """Deterministic short name for a genotype: prefix and digest."""
        arr = self.encoding.validate_indices(indices)
        return self._names(arr[None, :])[0]

    def describe(self) -> str:
        """Human-readable description of the space."""
        return f"{type(self).__name__} ({self.space_name}): {self.num_genes} genes"
