"""Random-number-generator helpers.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` and funnels it through
:func:`ensure_rng` so experiments are reproducible end to end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an integer seed, or an existing
        generator (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator that can be used for sampling.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, an int, or a numpy Generator, got {type(seed)!r}")
