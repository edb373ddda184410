"""Host kernels against plain-Python oracles over an adversarial battery.

Each counted primitive of :class:`~repro.mesh.engine.Region` runs a numpy
host kernel underneath — inline at the call site or from
:mod:`repro.mesh.kernels`.  This suite feeds those primitives every
record dtype and shape the algorithms use (1-D and 2-D int64, float64,
bool), plus the inputs where a kernel's rule shows: empty arrays, tied
keys (including ``-0.0`` vs ``0.0`` and all-equal runs), float
infinities, int64 values that wrap the accumulator, and a max-capacity
batch.  Each output is compared bit for bit with an element-at-a-time
Python loop that spells the rule out.
"""

import contextlib
import math
import zlib

import numpy as np
import pytest

from repro.mesh import kernels
from repro.mesh.engine import MeshEngine

#: side of the largest battery case: a full 16-records-per-processor
#: batch on an 8x8 mesh, the engine's max-capacity shape
MAX_CAPACITY = 16 * 8 * 8

OPS = ("add", "min", "max")


def _value_battery():
    """(tag, values) cases covering every dtype/shape the engine produces."""
    rng = np.random.default_rng(20260808)
    return [
        ("empty-i64", np.empty(0, dtype=np.int64)),
        ("empty-f64", np.empty(0, dtype=np.float64)),
        ("empty-bool", np.empty(0, dtype=bool)),
        ("empty-2d", np.empty((0, 3), dtype=np.int64)),
        ("one", np.array([7], dtype=np.int64)),
        ("one-negzero", np.array([-0.0])),
        ("ties-i64", np.array([3, 3, 3, 1, 1, 2, 2, 2, 2], dtype=np.int64)),
        ("ties-zeros", np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0])),
        ("all-equal", np.full(64, 5.5)),
        ("specials", np.array([np.inf, -np.inf, 1.0, -0.0, 0.0, -np.inf, np.inf])),
        ("wraparound", np.array([2**62, 2**62, 2**62, -(2**62), 2**62], dtype=np.int64)),
        ("bool", rng.random(33) < 0.5),
        ("rand-f64", rng.standard_normal(257)),
        ("rand-i64", rng.integers(-1000, 1000, 128)),
        ("block-i64", rng.integers(-50, 50, (41, 3))),
        ("block-f64", rng.standard_normal((41, 4))),
        ("max-capacity", rng.integers(-(2**62), 2**62, MAX_CAPACITY)),
        ("max-capacity-f64", rng.standard_normal(MAX_CAPACITY)),
    ]


def _cases(predicate=lambda values: True):
    return [
        pytest.param(tag, values, id=tag)
        for tag, values in _value_battery()
        if predicate(values)
    ]


ALL = _cases()
ONE_D = _cases(lambda v: v.ndim == 1)
NUMERIC = _cases(lambda v: v.ndim == 1 and v.dtype != bool)
NUMERIC_NONEMPTY = _cases(lambda v: v.ndim == 1 and v.dtype != bool and v.size)


def _warns_if_specials_add(tag, op):
    """Opposite infinities added make a NaN, and numpy warns about it;
    the ``specials`` ``add`` cases expect that warning."""
    if tag == "specials" and op == "add":
        return pytest.warns(RuntimeWarning, match="invalid value")
    return contextlib.nullcontext()


def _rng_for(tag):
    return np.random.default_rng(zlib.crc32(tag.encode()))


def _root():
    return MeshEngine(8).root


def assert_bits(got, want, context=""):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{context}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{context}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{context}: bit patterns differ"


# -- element-at-a-time oracles ----------------------------------------------


def _wrap64(x: int) -> int:
    """Two's-complement int64 wraparound of a Python int."""
    return (x + 2**63) % 2**64 - 2**63


def _combine(op, acc, v, dtype):
    """One step of a combining write or scan."""
    if op == "add":
        if dtype.kind == "i":
            return _wrap64(int(acc) + int(v))
        return float(acc) + float(v)
    pick = np.minimum if op == "min" else np.maximum
    return pick(dtype.type(acc), dtype.type(v))


def _sub(a, b, dtype):
    if dtype.kind == "i":
        return _wrap64(int(a) - int(b))
    return float(a) - float(b)


def _identity(dtype, op):
    if op == "add":
        return 0
    if dtype.kind == "f":
        return math.inf if op == "min" else -math.inf
    info = np.iinfo(dtype)
    return info.max if op == "min" else info.min


def _segmented(values, segments, op):
    """Inclusive and exclusive segmented scans, spelled out.

    ``add`` is the global running total minus the total at the segment's
    start (the kernel's documented shape, which fixes float rounding);
    the running total starts at the first value, so a lone ``-0.0``
    stays ``-0.0``.  Among equal values ``max`` keeps the latest and
    ``min`` the earliest.
    """
    dtype = values.dtype
    inc, exc, total, start, acc = [], [], 0, 0, None
    for i, v in enumerate(values):
        new_segment = i == 0 or segments[i] != segments[i - 1]
        if op == "add":
            start = total if new_segment else start
            total = v if i == 0 else _combine("add", total, v, dtype)
            inc.append(_sub(total, start, dtype))
            exc.append(_sub(inc[-1], v, dtype))
            continue
        exc.append(_identity(dtype, op) if new_segment else acc)
        if new_segment or (v >= acc if op == "max" else v < acc):
            acc = v
        inc.append(acc)
    return np.array(inc, dtype=dtype), np.array(exc, dtype=dtype)


# -- the battery -------------------------------------------------------------


@pytest.mark.parametrize("tag,values", ONE_D)
def test_stable_sort(tag, values):
    keys = values.tolist()
    want = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    payload = np.arange(values.shape[0], dtype=np.int64)
    root = _root()
    assert_bits(root.argsort(values), want, f"argsort[{tag}]")
    sorted_keys, moved = root.sort_by(values, payload)
    assert_bits(moved, want, f"sort_by[{tag}]")
    assert_bits(sorted_keys, values[want], f"sort_by keys[{tag}]")


@pytest.mark.parametrize("tag,values", ALL)
def test_take(tag, values):
    n = values.shape[0]
    rng = _rng_for(tag)
    idx = rng.integers(0, max(n, 1), n).astype(np.int64)
    idx[rng.random(n) < 0.25] = -1
    want = np.zeros_like(values)
    for i, a in enumerate(idx.tolist()):
        if a >= 0:
            want[i] = values[a]
    assert_bits(kernels.take(values, idx, fill=0), want, f"take[{tag}]")
    root = _root()
    assert_bits(root.rar(idx, values)[0], want, f"rar[{tag}]")


@pytest.mark.parametrize("tag,values", ALL)
def test_scatter(tag, values):
    n = values.shape[0]
    size = max(n, 1)
    rng = _rng_for(tag)
    dest = rng.permutation(size)[:n].astype(np.int64)
    dest[rng.random(n) < 0.25] = -1
    want = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    for i, d in enumerate(dest.tolist()):
        if d >= 0:
            want[d] = values[i]
    assert_bits(kernels.scatter(values, dest, size, fill=0), want, f"scatter[{tag}]")
    root = _root()
    assert_bits(root.route(dest, values, size=size)[0], want, f"route[{tag}]")


@pytest.mark.parametrize("tag,values", ALL)
def test_compress(tag, values):
    n = values.shape[0]
    root = _root()
    for mask in (_rng_for(tag).random(n) < 0.5, np.ones(n, bool), np.zeros(n, bool)):
        want = np.empty((0,) + values.shape[1:], dtype=values.dtype)
        for i in range(n):
            if mask[i]:
                want = np.concatenate([want, values[i : i + 1]])
        count, packed = root.compress(mask, values)
        assert count == want.shape[0]
        assert_bits(packed, want, f"compress[{tag}]")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("tag,values", NUMERIC)
def test_combining_write(tag, values, op):
    n = values.shape[0]
    size = max(n // 2, 1)
    idx = _rng_for(tag).integers(0, size, n).astype(np.int64)
    idx[::7] = -1  # suppressed writes
    fill = 0 if op == "add" else -1
    slots = [None] * size
    for a, v in zip(idx.tolist(), values):
        if a >= 0:
            start = fill if op == "add" else _identity(values.dtype, op)
            slots[a] = _combine(op, start if slots[a] is None else slots[a], v, values.dtype)
    want = np.array([fill if s is None else s for s in slots], dtype=values.dtype)
    root = _root()
    with _warns_if_specials_add(tag, op):
        got = root.raw(idx, values, size, combine=op, fill=fill)
    assert_bits(got, want, f"raw[{op}][{tag}]")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("tag,values", NUMERIC)
def test_scan(tag, values, op):
    inc = []
    for v in values:
        inc.append(_combine(op, inc[-1], v, values.dtype) if inc else v)
    want_inc = np.array(inc, dtype=values.dtype)
    want_exc = np.array([_identity(values.dtype, op)] + inc[:-1], dtype=values.dtype)
    root = _root()
    with _warns_if_specials_add(tag, op):
        got = root.scan(values, op=op)
    assert_bits(got, want_inc, f"scan[{op}][{tag}]")
    with _warns_if_specials_add(tag, op):
        got = root.scan(values, op=op, inclusive=False)
    assert_bits(got, want_exc[: values.shape[0]], f"exclusive scan[{op}][{tag}]")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("tag,values", NUMERIC)
def test_segmented_scan(tag, values, op):
    n = values.shape[0]
    segments = np.sort(_rng_for(tag).integers(0, max(n // 4, 1), n))
    want_inc, want_exc = _segmented(values, segments, op)
    root = _root()
    with _warns_if_specials_add(tag, op):
        got = root.segmented_scan(values, segments, op=op)
    assert_bits(got, want_inc, f"segscan[{op}][{tag}]")
    with _warns_if_specials_add(tag, op):
        got = root.segmented_scan(values, segments, op=op, inclusive=False)
    assert_bits(got, want_exc, f"exclusive segscan[{op}][{tag}]")


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("tag,values", NUMERIC_NONEMPTY)
def test_reduce(tag, values, op):
    py = values.tolist()
    inexact = op == "add" and values.dtype.kind == "f"
    if op != "add":
        want = (min if op == "min" else max)(py)
    elif not inexact:
        want = _wrap64(sum(py))
    else:  # numpy sums floats pairwise; the exact sum bounds the rounding
        want = math.fsum(py) if np.isfinite(values).all() else math.nan
    root = _root()
    with _warns_if_specials_add(tag, op):
        got = root.reduce(values, op=op)
    assert got.dtype == values.dtype
    if inexact and math.isnan(want):
        assert math.isnan(got)
    elif inexact:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    else:
        assert got == want
