"""Reference genotype operations: validity, repair and mutation.

The block spaces ``lens-vgg`` (``LensSearchSpace``) and ``seq-conv1d``
(``SeqConv1DSearchSpace``) share one validity rule and one repair,
:class:`repro.nn.search_space.BlockSearchSpace`'s, which index the genotype
at gene positions computed once and read the minimum pool and
fully-connected counts from each space's data.  This module keeps the
per-space paths that indexing replaced — decode the genotype into
``{gene name: value}`` and look the pool and fully-connected genes up by
name — as the oracles the property tests compare the shared hooks with,
draw for draw:

* :func:`lens_is_valid` / :func:`lens_repair` — at least
  ``min_pool_layers`` pooling layers, and at least one fully-connected
  layer;
* :func:`seq_is_valid` / :func:`seq_repair` — at least ``min_pool_layers``
  pooling layers.

It also keeps the mutation :meth:`repro.nn.encoding.EncodingScheme.mutate`
replaced, :func:`mutate`: each resampled gene draws with ``rng.choice``
over a rebuilt list of its other choices, where the library draws one
integer and skips the current index; and the genotype digest
:meth:`repro.nn.spaces.EncodedSearchSpace.genotype_digest` computes for a
whole pool at once, :func:`digest`: a fold over the genotype's values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.encoding import EncodingScheme
from repro.nn.search_space import LensSearchSpace, SeqConv1DSearchSpace


def _pool_total(space, values) -> int:
    return sum(
        1 for block in range(1, space.num_blocks + 1) if values[f"block{block}_pool"]
    )


def _switch_on_pools(space, arr: np.ndarray, rng: np.random.Generator) -> None:
    """Enable pooling at uniformly random blocks until the minimum holds."""
    pool_positions = [
        space.encoding.gene_position(f"block{block}_pool")
        for block in range(1, space.num_blocks + 1)
    ]
    on_index = space.encoding.gene("block1_pool").index_of(True)
    off_positions = [pos for pos in pool_positions if arr[pos] != on_index]
    missing = space.min_pool_layers - (len(pool_positions) - len(off_positions))
    if missing > 0:
        chosen = rng.choice(len(off_positions), size=missing, replace=False)
        for choice in np.atleast_1d(chosen):
            arr[off_positions[int(choice)]] = on_index


def lens_is_valid(space: LensSearchSpace, indices: Sequence[int]) -> bool:
    values = space.encoding.values(indices)
    if _pool_total(space, values) < space.min_pool_layers:
        return False
    return bool(values["fc1_present"] or values["fc2_present"])


def lens_repair(
    space: LensSearchSpace, indices: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    arr = space.encoding.validate_indices(indices).copy()
    values = space.encoding.values(arr)
    _switch_on_pools(space, arr, rng)
    if not (values["fc1_present"] or values["fc2_present"]):
        fc1_gene = space.encoding.gene("fc1_present")
        arr[space.encoding.gene_position("fc1_present")] = fc1_gene.index_of(True)
    return arr


def seq_is_valid(space: SeqConv1DSearchSpace, indices: Sequence[int]) -> bool:
    values = space.encoding.values(indices)
    return _pool_total(space, values) >= space.min_pool_layers


def seq_repair(
    space: SeqConv1DSearchSpace, indices: Sequence[int], rng: np.random.Generator
) -> np.ndarray:
    arr = space.encoding.validate_indices(indices).copy()
    _switch_on_pools(space, arr, rng)
    return arr


def mutate(
    encoding: EncodingScheme,
    indices: Sequence[int],
    rng: np.random.Generator,
    mutation_probability: float = 0.15,
) -> np.ndarray:
    arr = encoding.validate_indices(indices).copy()
    mutable = [i for i, gene in enumerate(encoding.genes) if gene.cardinality > 1]
    if not mutable:
        return arr
    changed = False
    for i in mutable:
        if rng.random() < mutation_probability:
            arr[i] = _resample_gene(arr[i], encoding.genes[i].cardinality, rng)
            changed = True
    if not changed:
        i = int(rng.choice(mutable))
        arr[i] = _resample_gene(arr[i], encoding.genes[i].cardinality, rng)
    return arr


def _resample_gene(current: int, cardinality: int, rng: np.random.Generator) -> int:
    options = [i for i in range(cardinality) if i != current]
    return int(rng.choice(options))


def digest(indices: Sequence[int]) -> str:
    """The 8-hex-digit genotype digest, folded one value at a time."""
    value = 0
    for index in indices:
        value = (value * 31 + int(index) + 1) % (16 ** 8)
    return f"{value:08x}"
