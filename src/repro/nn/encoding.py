"""Genotype encoding for architecture search spaces.

A candidate architecture is represented as an integer vector (one entry per
*gene*), where each gene indexes into a finite, ordered list of admissible
values.  The encoding serves three consumers:

* the search space, which decodes index vectors into concrete
  :class:`~repro.nn.architecture.Architecture` objects;
* the Bayesian optimizer, which works on the unit-cube projection of the
  index vector (ordinal genes map naturally onto a continuous kernel);
* serialization, where a candidate is stored as its integer vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Gene:
    """One discrete decision variable of the search space.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"block3_filters"``.
    choices:
        Ordered tuple of admissible values.  Ordering matters: the Bayesian
        optimizer treats genes as ordinal, so choices should be sorted from
        "smallest" to "largest" architectural effect where that is meaningful
        (e.g. filter counts ascending).
    """

    name: str
    choices: Tuple

    def __post_init__(self) -> None:
        if len(self.choices) == 0:
            raise ValueError(f"gene {self.name!r} must have at least one choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"gene {self.name!r} has duplicate choices: {self.choices}")

    @property
    def cardinality(self) -> int:
        """Number of admissible values."""
        return len(self.choices)

    def value(self, index: int) -> object:
        """Value at the given index (raises ``IndexError`` when out of range)."""
        if not 0 <= index < self.cardinality:
            raise IndexError(
                f"gene {self.name!r}: index {index} out of range [0, {self.cardinality})"
            )
        return self.choices[index]

    def index_of(self, value: object) -> int:
        """Index of ``value`` within the gene's choices."""
        try:
            return self.choices.index(value)
        except ValueError as exc:
            raise ValueError(
                f"gene {self.name!r}: {value!r} is not one of {self.choices}"
            ) from exc


class EncodingScheme:
    """A fixed, ordered collection of genes defining the genotype layout."""

    def __init__(self, genes: Sequence[Gene]):
        if not genes:
            raise ValueError("an encoding scheme requires at least one gene")
        names = [gene.name for gene in genes]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate gene names: {duplicates}")
        self.genes: Tuple[Gene, ...] = tuple(genes)
        self._index_by_name = {gene.name: i for i, gene in enumerate(self.genes)}
        # Built once and read-only: validation, the unit-cube projection and
        # mutation read them for every genotype a search draws.
        cards = np.array([gene.cardinality for gene in self.genes], dtype=np.int64)
        cards.flags.writeable = False
        self._cardinalities = cards
        self._unsigned_cardinalities = cards.astype(np.uint64)
        self._unit_steps = cards - 1.0
        self._unit_denominator = np.maximum(self._unit_steps, 1.0)
        self._multi_choice = cards > 1
        # (position, cardinality) of every gene mutation can change.
        self._mutable = [(i, card) for i, card in enumerate(cards.tolist()) if card > 1]

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self.genes)

    @property
    def num_genes(self) -> int:
        """Number of genes (length of an index vector)."""
        return len(self.genes)

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-gene number of choices as a read-only integer array."""
        return self._cardinalities

    def total_combinations(self) -> int:
        """Size of the unconstrained Cartesian product of all genes."""
        total = 1
        for gene in self.genes:
            total *= gene.cardinality
        return total

    def gene(self, name: str) -> Gene:
        """Look up a gene by name."""
        try:
            return self.genes[self._index_by_name[name]]
        except KeyError as exc:
            raise KeyError(f"no gene named {name!r}") from exc

    def gene_position(self, name: str) -> int:
        """Position of the named gene within the index vector."""
        try:
            return self._index_by_name[name]
        except KeyError as exc:
            raise KeyError(f"no gene named {name!r}") from exc

    # ------------------------------------------------------------------ vectors
    def validate_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Check bounds and return the indices as an ``int64`` array.

        An ``int64`` array is returned as is, other integer dtypes are
        converted, and anything else must hold integral values only
        (``ValueError`` otherwise — ``0.9`` is not gene index 0).
        """
        arr = np.asarray(indices)
        if arr.dtype != np.int64:
            arr = _as_int64(arr)
        if arr.shape != (self.num_genes,):
            raise ValueError(
                f"expected an index vector of length {self.num_genes}, got shape {arr.shape}"
            )
        # Negative entries wrap to huge unsigned values, so one comparison
        # checks both bounds.
        if not (arr.view(np.uint64) < self._unsigned_cardinalities).all():
            bad = [
                f"{gene.name}={idx} (cardinality {gene.cardinality})"
                for gene, idx in zip(self.genes, arr)
                if idx < 0 or idx >= gene.cardinality
            ]
            raise ValueError(f"gene indices out of range: {', '.join(bad)}")
        return arr

    def validate_pool(self, genotypes: Sequence[Sequence[int]]) -> np.ndarray:
        """Check a pool of index vectors and return it as an ``(m, d)`` ``int64`` array.

        A pool of integer rows is checked in one pass.  Anything else —
        ragged or non-integer rows, or an out-of-range index — is checked row
        by row with :meth:`validate_indices`, so the pool accepts exactly the
        rows it accepts, and the first bad row raises its ``ValueError``.
        """
        try:
            arr = np.asarray(genotypes)
        except ValueError:  # ragged rows
            arr = None
        if (
            arr is not None
            and arr.ndim == 2
            and arr.shape[1] == self.num_genes
            and arr.dtype.kind in "biu"
        ):
            arr = arr.astype(np.int64, copy=False)
            if (arr.view(np.uint64) < self._unsigned_cardinalities).all():
                return arr
        rows = [self.validate_indices(row) for row in genotypes]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.num_genes)

    def sample_indices(self, rng: SeedLike = None) -> np.ndarray:
        """Sample a uniformly random (unconstrained) index vector.

        One ``integers`` call over the cardinality array draws the same
        numbers, and leaves the generator in the same state, as one call per
        gene in gene order; ``tests/test_nn_encoding.py`` pins that, because
        every seeded golden depends on it.
        """
        return ensure_rng(rng).integers(0, self._cardinalities)

    def values(self, indices: Sequence[int]) -> Dict[str, object]:
        """Map an index vector to a ``{gene name: value}`` dictionary."""
        arr = self.validate_indices(indices)
        return {gene.name: gene.value(int(idx)) for gene, idx in zip(self.genes, arr)}

    def indices_from_values(self, values: Dict[str, object]) -> np.ndarray:
        """Inverse of :meth:`values`; all genes must be present."""
        missing = [gene.name for gene in self.genes if gene.name not in values]
        if missing:
            raise ValueError(f"missing values for genes: {missing}")
        return np.array(
            [gene.index_of(values[gene.name]) for gene in self.genes], dtype=int
        )

    # ------------------------------------------------------------------ continuous view
    def to_unit(self, indices: Sequence[int]) -> np.ndarray:
        """Project an index vector to the unit cube ``[0, 1]^d``.

        A gene with a single choice maps to 0.5 so it carries no information
        for the Gaussian-process kernel.
        """
        arr = self.validate_indices(indices)
        return np.where(self._multi_choice, arr / self._unit_denominator, 0.5)

    def from_unit(self, unit: Sequence[float]) -> np.ndarray:
        """Snap a unit-cube point back onto the nearest valid index vector."""
        arr = np.clip(np.asarray(unit, dtype=float), 0.0, 1.0)
        if arr.shape != (self.num_genes,):
            raise ValueError(
                f"expected a unit vector of length {self.num_genes}, got shape {arr.shape}"
            )
        indices = np.rint(arr * self._unit_steps).astype(int)
        return self.validate_indices(indices)

    # ------------------------------------------------------------------ neighbourhood
    def mutate(
        self,
        indices: Sequence[int],
        rng: SeedLike = None,
        mutation_probability: float = 0.15,
    ) -> np.ndarray:
        """Return a neighbouring index vector.

        Each gene is independently resampled with ``mutation_probability``; at
        least one gene is always changed so the result differs from the input
        whenever any gene has more than one choice.  A resampled gene takes
        one of its other choices uniformly: ``k = integers(0, c - 1)``,
        skipping the current index, which draws what ``rng.choice`` over the
        list of the other choices draws (``tests/oracles/genotype.py``).
        """
        rng = ensure_rng(rng)
        arr = self.validate_indices(indices).copy()
        mutable = self._mutable
        if not mutable:
            return arr
        changed = False
        for i, card in mutable:
            if rng.random() < mutation_probability:
                arr[i] = _other_choice(int(arr[i]), card, rng)
                changed = True
        if not changed:
            i, card = mutable[rng.integers(0, len(mutable))]
            arr[i] = _other_choice(int(arr[i]), card, rng)
        return arr

    def describe(self) -> str:
        """Human-readable listing of genes and their choices."""
        lines: List[str] = [f"EncodingScheme with {self.num_genes} genes:"]
        for gene in self.genes:
            lines.append(f"  {gene.name}: {list(gene.choices)}")
        return "\n".join(lines)


def _as_int64(arr: np.ndarray) -> np.ndarray:
    """Non-``int64`` indices as ``int64``; ``ValueError`` for a non-integral entry."""
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64)
    try:
        values = arr.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"gene indices must be integers, got {arr!r}") from exc
    if not (np.isfinite(values) & (values == np.trunc(values))).all():
        raise ValueError(f"gene indices must be integers, got {arr.tolist()}")
    return values.astype(np.int64)


def _other_choice(current: int, cardinality: int, rng: np.random.Generator) -> int:
    """A uniform draw over a gene's choices other than ``current``."""
    k = int(rng.integers(0, cardinality - 1))
    return k + (k >= current)
