"""Oracle tests for the simcore kernels.

Each kernel is checked against a plain reference model (a per-byte run
scan, builtin ``max``, a dict of tags, ``struct``-free round trips) on
both sides of every size rule the kernels decide from their input:
the word-scan / ``np.flatnonzero`` crossover of ``diff_runs`` and the
list / numpy crossover of the vector-clock kernels.  Seeded randomized
operation sequences drive each check.
"""

import random
from array import array

import numpy as np
import pytest

from repro.simcore import (
    _DIFF_VECTOR_MIN,
    _VC_VECTOR_MIN,
    TagArray,
    alloc_block,
    as_payload,
    copy_of,
    diff_runs,
    dtype,
    fill,
    frombytes,
    pack_scalar,
    pack_values,
    typed_view,
    vc_alloc,
    vc_dominates,
    vc_merge_into,
)
from repro.simcore.ring import SeqRing

SEEDS = [0, 1, 2, 7, 1997]


# ----------------------------------------------------------------------
# tag arrays
# ----------------------------------------------------------------------
def _tagged_oracle(tags: bytearray):
    """Per-byte scan: every (block, tag) with a non-zero tag, ascending."""
    return [(b, t) for b, t in enumerate(tags) if t]


@pytest.mark.parametrize("seed", SEEDS)
def test_tag_arrays_identical(seed):
    """Every single-block op and the bulk scan agree with a dict model,
    including ops past the table's end and after it grows."""
    ta, model = TagArray(), {}
    rng = random.Random(seed)
    # block ids well past the initial 64-entry table force growth
    for step in range(400):
        block = rng.randrange(200 if step < 200 else 3000)
        op = rng.randrange(6)
        had = model.get(block, 0)
        if op == 0:
            tag = rng.choice([0, 1, 2])
            ta.set_tag(block, tag)
            if tag:
                model[block] = tag
            else:
                model.pop(block, None)
        elif op == 1:
            assert ta.invalidate(block) == (had != 0)
            model.pop(block, None)
        elif op == 2:
            assert ta.downgrade(block) == (had == 2)
            if had == 2:
                model[block] = 1
        elif op == 3:
            assert ta.tag(block) == had
        elif op == 4:
            write = rng.random() < 0.5
            assert ta.permits(block, write) == (had == 2 or (had == 1 and not write))
        else:
            assert ta.permits_read(block) == (had != 0)
        assert len(ta) == len(model)
        if step % 50 == 0:
            assert list(ta.blocks_with_access()) == _tagged_oracle(ta._tags)
    assert ta.capacity > 200
    assert list(ta.blocks_with_access()) == _tagged_oracle(ta._tags)
    assert list(ta.blocks_with_access()) == sorted(model.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_tags_match_dict_model(seed):
    ta = TagArray()
    model = {}
    rng = random.Random(seed)
    for _ in range(400):
        block = rng.randrange(200)
        tag = rng.choice([0, 1, 2])
        ta.set_tag(block, tag)
        if tag:
            model[block] = tag
        else:
            model.pop(block, None)
        probe = rng.randrange(200)
        assert ta.tag(probe) == model.get(probe, 0)
        assert ta.permits_read(probe) == (probe in model)
    assert list(ta.blocks_with_access()) == sorted(model.items())


# ----------------------------------------------------------------------
# vector clocks -- both sides of the list / numpy crossover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n", [4, 16, _VC_VECTOR_MIN - 1, _VC_VECTOR_MIN, _VC_VECTOR_MIN + 1, 128]
)
def test_vector_clock_kernels_identical(seed, n):
    rng = random.Random(seed * 1000 + n)
    v = vc_alloc(n)
    assert isinstance(v, list) == (n < _VC_VECTOR_MIN)
    expect = [0] * n
    for _ in range(50):
        other = array("q", (rng.randrange(120) for _ in range(n)))
        vc_merge_into(v, other)
        expect = [max(a, b) for a, b in zip(expect, other)]
        assert list(v) == expect
        probe = [rng.randrange(130) for _ in range(n)]
        assert vc_dominates(v, probe) == all(a >= b for a, b in zip(expect, probe))
    assert vc_dominates(v, list(v))


def test_fallback_vc_matches_builtin_max():
    rng = random.Random(3)
    v = array("q", (rng.randrange(50) for _ in range(32)))
    other = array("q", (rng.randrange(50) for _ in range(32)))
    expect = [max(a, b) for a, b in zip(v, other)]
    vc_merge_into(v, other)
    assert list(v) == expect
    assert vc_dominates(v, other)
    assert vc_dominates(v, v)


# ----------------------------------------------------------------------
# twin/diff run extraction -- both sides of the word-scan / numpy rule
# ----------------------------------------------------------------------
def _mutate(rng: random.Random, base: bytearray) -> bytearray:
    """One of the real-world dirty-block shapes, randomized."""
    dirty = bytearray(base)
    shape = rng.randrange(5)
    n = len(dirty)
    if shape == 0:
        pass  # unchanged
    elif shape == 1:  # one contiguous run
        start = rng.randrange(n)
        stop = min(n, start + rng.randrange(1, 64))
        for i in range(start, stop):
            dirty[i] ^= 0x5A
    elif shape == 2:  # scattered single bytes
        for _ in range(rng.randrange(1, 20)):
            dirty[rng.randrange(n)] ^= 0xFF
    elif shape == 3:  # word-aligned strided writes
        for i in range(0, n, 8 * rng.randrange(1, 5)):
            dirty[i] = (dirty[i] + 1) & 0xFF
    else:  # tail bytes (exercises the residual-byte scan)
        for i in range(max(0, n - rng.randrange(1, 9)), n):
            dirty[i] ^= 0x01
    return dirty


def _runs_oracle(dirty, twin):
    """Naive per-byte scan for maximal runs of differing bytes."""
    runs, start = [], None
    for i in range(len(dirty) + 1):
        differs = i < len(dirty) and dirty[i] != twin[i]
        if differs and start is None:
            start = i
        elif not differs and start is not None:
            runs.append((start, bytes(dirty[start:i])))
            start = None
    return runs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "size",
    sorted({1, 7, 64, _DIFF_VECTOR_MIN - 1, _DIFF_VECTOR_MIN, 1024, 4096}),
)
def test_diff_runs_identical(seed, size):
    rng = random.Random(seed * 10 + size)
    twin = bytearray(rng.randrange(256) for _ in range(size))
    for _ in range(20):
        dirty = _mutate(rng, twin)
        runs = diff_runs(dirty, twin)
        assert runs == _runs_oracle(dirty, twin)
        assert all(type(data) is bytes for _, data in runs)


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_diff_runs_roundtrip_and_shape(seed):
    rng = random.Random(seed)
    for size in (1, 9, 64, 1000):
        twin = bytearray(rng.randrange(256) for _ in range(size))
        for _ in range(10):
            dirty = _mutate(rng, twin)
            runs = diff_runs(dirty, twin)
            # runs reconstruct the dirty copy from the twin
            rebuilt = bytearray(twin)
            for off, data in runs:
                rebuilt[off : off + len(data)] = data
            assert rebuilt == dirty
            # runs are ascending, non-empty, non-adjacent (maximal)
            prev_end = -2
            for off, data in runs:
                assert len(data) > 0
                assert off > prev_end + 1
                prev_end = off + len(data) - 1


# ----------------------------------------------------------------------
# block buffers, packing, typed views
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_kernels_identical(seed):
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randrange(1, 300)
        raw = bytes(rng.randrange(256) for _ in range(n))
        buf = frombytes(raw)
        assert type(buf) is bytearray and buf == raw
        start = rng.randrange(n)
        stop = rng.randrange(start, n + 1)
        value = rng.randrange(256)
        fill(buf, start, stop, value)
        expect = raw[:start] + bytes([value] * (stop - start)) + raw[stop:]
        assert buf == expect
        copy = copy_of(buf)
        copy[0] ^= 1
        assert buf == expect and len(copy) == n
        assert alloc_block(n) == bytes(n)
        assert bytes(as_payload(raw)) == raw
        assert bytes(as_payload(np.frombuffer(raw, np.uint8))) == raw


@pytest.mark.parametrize("spec", ["float64", "int64", "int32", "uint8"])
def test_pack_and_typed_view_identical(spec):
    dt = dtype(spec)
    values = [0, 1, 17, 100]
    packed = pack_values(values, (4,), dt)
    assert len(packed) == 4 * dt.itemsize
    view = typed_view(frombytes(packed), dt)
    assert view.tolist() == values
    assert view.sum() == sum(values)
    assert typed_view(frombytes(pack_scalar(42, dt)), dt).tolist() == [42]
    # the view writes through to the block it views
    block = frombytes(packed)
    typed_view(block, dt)[2] = 5
    assert typed_view(block, dt).tolist() == [0, 1, 5, 100]
    # every spelling of the type resolves to the same dtype
    assert dtype(np.dtype(spec)) is dt and dtype(getattr(np, spec)) is dt


def test_pack_values_shape_checked():
    dt = dtype("float64")
    assert dtype(float) is dt and dtype("d") is dt and dtype("f8") is dt
    with pytest.raises(ValueError):
        pack_values([1.0, 2.0], (3,), dt)
    with pytest.raises(TypeError):
        dtype("complex128")


# ----------------------------------------------------------------------
# sequence ring vs a dict reference model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_seq_ring_matches_dict_model(seed):
    rng = random.Random(seed)
    ring, model = SeqRing(4), {}
    cursor = 0
    for _ in range(500):
        op = rng.randrange(3)
        if op == 0:  # out-of-order arrival inside a window above cursor
            seq = cursor + rng.randrange(64)
            assert ring.put(seq, ("msg", seq)) == (seq not in model)
            model.setdefault(seq, ("msg", seq))
        elif op == 1 and model:  # drain one held sequence
            seq = rng.choice(list(model))
            assert ring.pop(seq) == model.pop(seq)
            cursor = max(cursor, seq + 1)
        else:
            probe = cursor + rng.randrange(64)
            assert (probe in ring) == (probe in model)
        assert len(ring) == len(model)
    assert list(ring.items()) == sorted(model.items())


def test_seq_ring_pop_missing_raises():
    ring = SeqRing()
    ring.put(5, "x")
    with pytest.raises(KeyError):
        ring.pop(6)


def test_seq_ring_grows_past_collisions():
    ring = SeqRing(2)
    # 0 and 1024 collide at every small power of two; the ring must
    # keep both live.
    assert ring.put(0, "a") and ring.put(1024, "b") and ring.put(2048, "c")
    assert ring.pop(1024) == "b"
    assert 0 in ring and 2048 in ring and 1024 not in ring
