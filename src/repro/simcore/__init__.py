"""The simulator-core kernels: one implementation, chosen per kernel.

Every byte- and integer-plane operation the simulator's hot paths need
-- block buffers, typed views, vector-clock merges, twin/diff run
extraction -- is defined once, here.  Access-tag tables live in
:mod:`repro.simcore.tags` and per-link reorder buffers in
:mod:`repro.simcore.ring`.

Block contents are ``bytearray`` everywhere: slicing, slice assignment
and whole-buffer compares (one C ``memcmp``) are the operations the
protocols perform, and ``bytearray`` does each with no per-call
overhead.  Typed element access goes through zero-copy numpy views;
otherwise numpy is used only where it pays for its fixed per-call cost,
decided from the input by a size rule whose crossover was measured
(the table is in docs/PERFORMANCE.md):

* vector clocks -- a plain ``list`` with early-exit loops below
  :data:`_VC_VECTOR_MIN` components, an ``array('q')`` merged through
  ``np.maximum`` at and above it;
* :func:`diff_runs` -- a regex scan of ``dirty XOR twin`` (computed as
  two python ints) below :data:`_DIFF_VECTOR_MIN` bytes,
  ``np.flatnonzero`` over zero-copy views at and above it.

Both sides of every size rule return identical results, so a run's
stats-sha does not depend on which side a kernel took.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Tuple

import numpy as np

from repro.simcore.ring import SeqRing
from repro.simcore.tags import NONZERO_RUN, SHORT_RUN, TagArray

#: the kernel implementation, reported in benchmark run headers
BACKEND = "bytearray+numpy"

#: vector-clock length at which numpy beats the early-exit loop
_VC_VECTOR_MIN = 64
#: block size (bytes) at which np.flatnonzero beats the XOR scan
_DIFF_VECTOR_MIN = 256

_u8 = np.uint8
_i64 = np.int64


# ----------------------------------------------------------------------
# block buffers
# ----------------------------------------------------------------------
def alloc_block(n: int) -> bytearray:
    """A zero-filled mutable byte buffer of ``n`` bytes."""
    return bytearray(n)


def empty_block(n: int) -> bytearray:
    """A buffer the caller overwrites in full (zero-filled here)."""
    return bytearray(n)


def frombytes(data) -> bytearray:
    """An independent mutable buffer holding a copy of ``data``."""
    return bytearray(data)


def copy_of(buf) -> bytearray:
    return bytearray(buf)


def fill(buf: bytearray, start: int, stop: int, value: int) -> None:
    if stop > start:
        buf[start:stop] = bytes((value,)) * (stop - start)


def as_payload(data):
    """Coerce bytes-like input (``bytes``, ``bytearray``, the arrays
    :func:`pack_values` returns) to a sliceable byte buffer."""
    if isinstance(data, (bytes, bytearray)):
        return data
    return memoryview(data).cast("B")


# ----------------------------------------------------------------------
# element types, typed views and packing
# ----------------------------------------------------------------------
#: the supported element types, by canonical name
_DTYPES = {
    name: np.dtype(name)
    for name in ("float64", "float32", "int64", "uint64", "int32",
                 "uint32", "int16", "uint16", "int8", "uint8")
}
#: other accepted spellings: numpy short codes, python type names and
#: struct format codes
_ALIASES = {
    "f8": "float64", "f4": "float32", "i8": "int64", "u8": "uint64",
    "i4": "int32", "u4": "uint32", "i2": "int16", "u2": "uint16",
    "i1": "int8", "u1": "uint8", "float": "float64", "int": "int64",
    "d": "float64", "f": "float32", "q": "int64", "Q": "uint64",
    "i": "int32", "I": "uint32", "h": "int16", "H": "uint16",
    "b": "int8", "B": "uint8",
}


def dtype(spec: Any) -> np.dtype:
    """Resolve a dtype spec (numpy dtype or scalar type, python
    ``float``/``int``, or a name) to a supported numpy dtype."""
    if isinstance(spec, str):
        key = spec
    else:
        # numpy dtypes have .name ("float64"); numpy scalar types and
        # python types have __name__ ("float64", "float").
        key = getattr(spec, "name", None) or getattr(spec, "__name__", None) or str(spec)
    dt = _DTYPES.get(_ALIASES.get(key, key))
    if dt is None:
        raise TypeError(f"unsupported simcore dtype {spec!r}")
    return dt


def typed_view(buf, dt: np.dtype) -> np.ndarray:
    """View a byte buffer as elements of ``dt`` (zero copy)."""
    return np.frombuffer(buf, dtype=dt)


def pack_scalar(value: Any, dt: np.dtype) -> np.ndarray:
    """One value as its byte representation."""
    return np.array([value], dtype=dt).view(_u8)


def pack_values(values: Any, shape, dt: np.dtype) -> np.ndarray:
    """A sequence (or nested sequence) as bytes; shape-checked."""
    arr = np.asarray(values, dtype=dt)
    if arr.shape != shape:
        raise ValueError(f"value shape {arr.shape} != expected {shape}")
    return np.ascontiguousarray(arr).view(_u8).ravel()


# ----------------------------------------------------------------------
# vector-clock kernels
# ----------------------------------------------------------------------
def vc_alloc(n: int):
    """A zeroed clock vector.

    Below the vectorization crossover a plain list wins (list indexing
    beats ``array('q')`` by ~1.5x and numpy call overhead dwarfs the
    work); at and above it an ``array('q')`` exposes the raw int64
    buffer the vectorized kernels operate on zero-copy.
    """
    if n < _VC_VECTOR_MIN:
        return [0] * n
    return array("q", bytes(8 * n))


def vc_merge_into(v, other) -> None:
    """Elementwise ``v[i] = max(v[i], other[i])`` into ``v``.

    ``v`` comes from :func:`vc_alloc`; ``other`` is any int sequence of
    the same length.  Vectorizes at and above the crossover.
    """
    n = len(v)
    if n >= _VC_VECTOR_MIN:
        a = np.frombuffer(v, dtype=_i64)
        try:
            b = np.frombuffer(other, dtype=_i64)
        except TypeError:
            b = np.asarray(other, dtype=_i64)
        np.maximum(a, b, out=a)
        return
    i = 0
    for x in other:
        if x > v[i]:
            v[i] = x
        i += 1


def vc_dominates(v, other) -> bool:
    """True iff ``v[i] >= other[i]`` for every component."""
    n = len(v)
    if n >= _VC_VECTOR_MIN:
        a = np.frombuffer(v, dtype=_i64)
        try:
            b = np.frombuffer(other, dtype=_i64)
        except TypeError:
            b = np.asarray(other, dtype=_i64)
        return bool((a >= b).all())
    i = 0
    for x in other:
        if v[i] < x:
            return False
        i += 1
    return True


# ----------------------------------------------------------------------
# twin/diff run extraction
# ----------------------------------------------------------------------
def diff_runs(dirty: bytearray, twin: bytearray) -> List[Tuple[int, bytes]]:
    """Changed-byte runs of ``dirty`` vs ``twin``: maximal groups of
    consecutive differing byte offsets, as (offset, copied data).

    One memcmp rules out the unchanged block (a write fault taken, the
    same bytes stored back).  Small blocks then XOR the two buffers as
    python ints and find runs of non-zero bytes with one regex scan;
    large ones take the changed offsets from one vectorized compare.
    """
    if dirty == twin:
        return []
    n = len(dirty)
    if n < _DIFF_VECTOR_MIN:
        # the non-zero bytes of dirty XOR twin are the changed offsets
        x = int.from_bytes(dirty, "little") ^ int.from_bytes(twin, "little")
        spans = (m.span() for m in NONZERO_RUN.finditer(x.to_bytes(n, "little")))
        return [(s, bytes(dirty[s:e])) for s, e in spans]
    idx = np.flatnonzero(np.frombuffer(dirty, _u8) != np.frombuffer(twin, _u8))
    lo = int(idx[0])
    hi = int(idx[-1]) + 1
    if hi - lo == idx.size:
        # one contiguous run (a sequential sweep over the block)
        return [(lo, bytes(dirty[lo:hi]))]
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = [lo] + idx[breaks + 1].tolist()
    ends = (idx[breaks] + 1).tolist() + [hi]
    return [(s, bytes(dirty[s:e])) for s, e in zip(starts, ends)]


__all__ = [
    "BACKEND",
    "alloc_block",
    "empty_block",
    "frombytes",
    "copy_of",
    "fill",
    "as_payload",
    "dtype",
    "typed_view",
    "pack_scalar",
    "pack_values",
    "TagArray",
    "vc_alloc",
    "vc_merge_into",
    "vc_dominates",
    "diff_runs",
    "SeqRing",
    "SHORT_RUN",
]
