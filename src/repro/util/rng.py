"""Deterministic RNG plumbing.

Every stochastic component in the library (workload generators,
independent-set selection in the hierarchy builders, benchmark harness)
takes either a seed or a ``numpy.random.Generator``; this module is the
single place that turns one into the other so experiments are
reproducible bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn"]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts a seed (int or None) or an existing generator (returned as-is),
    so APIs can take ``seed=...`` uniformly.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators."""
    if n < 0:
        raise ValueError(f"spawn requires n >= 0, got {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]
