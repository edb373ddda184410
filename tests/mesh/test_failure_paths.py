"""Property tests for the engine's failure paths.

The paper's O(1)-records-per-processor discipline is enforced by
:class:`CapacityError`.  It must fire for *any* over-capacity count, not
just the examples the unit tests happen to use.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.engine import CapacityError, MeshEngine


def _engine(side: int = 4) -> MeshEngine:
    return MeshEngine(side)


class TestCapacityProperties:
    @given(excess=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_route_over_capacity(self, excess):
        eng = _engine()
        limit = eng.size * eng.capacity
        n = limit + excess
        dest = np.arange(n, dtype=np.int64)
        with pytest.raises(CapacityError):
            eng.root.route(dest, np.zeros(n), size=n)

    @given(excess=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_transfer_over_capacity(self, excess):
        eng = _engine()
        top = eng.root.subregion(0, 0, 2, 4)
        bot = eng.root.subregion(2, 0, 2, 4)
        n = bot.size * eng.capacity + excess
        with pytest.raises(CapacityError):
            eng.transfer(top, bot, np.zeros(n))

    @given(
        count=st.integers(min_value=0, max_value=10_000),
        per_proc=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_check_capacity_law(self, count, per_proc):
        eng = _engine()
        region = eng.root
        limit = region.size * min(per_proc, eng.capacity)
        if count > limit:
            with pytest.raises(CapacityError):
                region.check_capacity(count, per_proc=per_proc)
        else:
            region.check_capacity(count, per_proc=per_proc)

    @given(excess=st.integers(min_value=1, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_sort_over_capacity(self, excess):
        eng = _engine()
        n = eng.size * eng.capacity + excess
        with pytest.raises(CapacityError):
            eng.root.sort_by(np.zeros(n))
