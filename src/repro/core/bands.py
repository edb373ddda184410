"""The ``B_i`` band decomposition of a hierarchical DAG (paper Section 3).

With all logarithms base ``mu`` and ``log^(0) x = x/2``, the paper defines
band boundaries ``l_i = h - 2 * log^(i) h`` and

* ``B_i`` = the subgraph induced by levels ``[l_i, l_{i+1} - 1]`` for
  ``0 <= i <= log*h - 1`` (so ``l_0 = 0``: the bands start at the root);
* ``B*`` = levels ``[l_{log*h}, h]``.

(The paper's text says ``B*`` starts at ``h - 2 log^(log*h - 1) h``, which
would overlap all of ``B_{log*h-1}``; the exponent must be ``log*h`` for
the bands to tile the levels, and then ``log^(log*h) h < mu^c`` makes
``B*`` O(1) levels — we implement the corrected version and note it here.)

Facts reproduced by F4/F5 and the tests:

* ``|B_i| = O(mu^(h - 2 log^(i+1) h)) = O(n / (log^(i) h)^2)``,
* ``Delta h_i = l_{i+1} - l_i = O(log^(i) h)``,
* the ``B_i^1`` / ``B_i^2`` split: with ``m_i = ceil(2 log_mu Delta h_i)``,
  ``B_i^1`` is all but the last ``m_i + 1`` levels of ``B_i`` and satisfies
  ``|B_i^1| = O(|B_i| / (Delta h_i)^2)``; ``B_i^2`` is the rest.

``compute_bands`` takes the exact level sizes, so all size claims can be
checked against actual vertex counts rather than the ``mu^i`` idealization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.mathx import ilog, iterated_log, log_star, mu_constant

__all__ = ["Band", "BandDecomposition", "compute_bands"]


@dataclass(frozen=True)
class Band:
    """One band ``B_i``: levels ``[lo_level, hi_level]`` inclusive.

    Its level counts and ranges are worked out on first use and kept: a
    plan cached on a structure reads them on every batch.
    """

    index: int
    lo_level: int
    hi_level: int
    #: number of vertices in the band
    n_vertices: int
    #: ``m_i``: number of level-steps handled by Phase 2 (``B_i^2``);
    #: ``B_i^1`` covers levels ``[lo_level, hi_level - m]`` (may be empty).
    m: int

    @cached_property
    def n_levels(self) -> int:
        """The paper's ``Delta h_i``."""
        return self.hi_level - self.lo_level + 1

    @cached_property
    def b1_levels(self) -> tuple[int, int] | None:
        """Level range of ``B_i^1`` = ``[lo, hi - 1 - m]``, or None if empty."""
        hi = self.hi_level - 1 - self.m
        if hi < self.lo_level:
            return None
        return (self.lo_level, hi)

    @cached_property
    def b2_levels(self) -> tuple[int, int]:
        """Level range of ``B_i^2`` = ``[hi - m, hi]`` (clamped to the band)."""
        return (max(self.lo_level, self.hi_level - self.m), self.hi_level)


@dataclass(frozen=True)
class BandDecomposition:
    """Bands ``B_0 .. B_{t-1}`` plus the O(1)-level tail ``B*``."""

    mu: float
    h: int
    c: int
    log_star_h: int
    bands: tuple[Band, ...]
    bstar_lo: int
    bstar_n_vertices: int

    @property
    def bstar_levels(self) -> tuple[int, int]:
        return (self.bstar_lo, self.h)


def compute_bands(
    level_sizes: np.ndarray, mu: float, c: int | None = None
) -> BandDecomposition:
    """Compute the band decomposition for a DAG with the given level sizes.

    Degenerate cases (small ``h``, collapsing log towers, bands that would
    be empty) fold into ``B*``; correctness never depends on the bands
    being nontrivial, only the O(sqrt(n)) bound does (and only for large
    ``n``, as in the paper).
    """
    level_sizes = np.asarray(level_sizes, dtype=np.int64)
    h = int(level_sizes.size - 1)
    if c is None:
        c = mu_constant(mu)
    if h < 1:
        return BandDecomposition(mu, h, c, -1, (), 0, int(level_sizes.sum()))
    t = log_star(h, mu, c)
    cum = np.concatenate([[0], np.cumsum(level_sizes)])

    def band_vertices(lo: int, hi: int) -> int:
        return int(cum[hi + 1] - cum[lo])

    # boundaries l_i = h - 2 log^(i) h, clamped and monotone
    bounds: list[int] = []
    for i in range(max(t, 0) + 1):
        v = iterated_log(h, i, mu)
        li = max(0, int(math.ceil(h - 2.0 * v)))
        bounds.append(li)
    for j in range(1, len(bounds)):
        bounds[j] = max(bounds[j], bounds[j - 1])

    bands: list[Band] = []
    if t >= 1:
        for i in range(t):
            lo, hi = bounds[i], bounds[i + 1] - 1
            if hi < lo:
                continue  # empty band folds away
            dh = hi - lo + 1
            m = int(math.ceil(2.0 * ilog(dh, mu))) if dh >= 2 else dh - 1
            m = max(0, min(m, dh - 1))
            bands.append(Band(len(bands), lo, hi, band_vertices(lo, hi), m))
    bstar_lo = bounds[t] if t >= 1 else 0
    return BandDecomposition(
        mu=mu,
        h=h,
        c=c,
        log_star_h=t,
        bands=tuple(bands),
        bstar_lo=bstar_lo,
        bstar_n_vertices=band_vertices(bstar_lo, h),
    )
