"""Tests for the twin/diff machinery (HLRC's multiple-writer core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff import RUN_HEADER_BYTES, Diff, apply_diff, create_diff


def blocks(size=256, seed=0):
    rng = np.random.default_rng(seed)
    twin = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    return bytearray(twin), twin


def flip(buf, lo, hi, mask):
    for i in range(lo, hi):
        buf[i] ^= mask


class TestCreateDiff:
    def test_identical_copies_empty_diff(self):
        dirty, twin = blocks()
        d = create_diff(0, dirty, twin)
        assert d.empty
        assert d.payload_bytes == 0

    def test_single_byte_change(self):
        dirty, twin = blocks()
        dirty[17] ^= 0xFF
        d = create_diff(0, dirty, twin)
        assert len(d.runs) == 1
        off, data = d.runs[0]
        assert off == 17 and len(data) == 1
        assert d.payload_bytes == 1

    def test_contiguous_run_detected(self):
        dirty, twin = blocks()
        flip(dirty, 10, 20, 0xFF)
        d = create_diff(0, dirty, twin)
        assert len(d.runs) == 1
        assert d.runs[0][0] == 10
        assert len(d.runs[0][1]) == 10

    def test_separate_runs_detected(self):
        dirty, twin = blocks()
        dirty[0] ^= 1
        flip(dirty, 100, 110, 0xFF)
        dirty[255] ^= 1
        d = create_diff(0, dirty, twin)
        assert len(d.runs) == 3
        assert [r[0] for r in d.runs] == [0, 100, 255]

    def test_wire_bytes_include_run_headers(self):
        dirty, twin = blocks()
        dirty[0] ^= 1
        dirty[50] ^= 1
        d = create_diff(0, dirty, twin)
        assert d.wire_bytes == 2 + 2 * RUN_HEADER_BYTES

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            create_diff(0, bytearray(10), bytearray(20))

    def test_diff_data_is_copy(self):
        dirty, twin = blocks()
        dirty[5] = 99 if twin[5] != 99 else 98
        d = create_diff(0, dirty, twin)
        saved = d.runs[0][1][0]
        dirty[5] = twin[5]
        assert d.runs[0][1][0] == saved


class TestApplyDiff:
    def test_roundtrip(self):
        dirty, twin = blocks()
        flip(dirty, 30, 60, 0xAA)
        dirty[200] ^= 1
        d = create_diff(0, dirty, twin)
        target = bytearray(twin)
        written = apply_diff(target, d)
        assert target == dirty
        assert written == d.payload_bytes

    def test_out_of_range_run_rejected(self):
        d = Diff(block=0, runs=[(250, bytes(10))])
        target = bytearray(256)
        with pytest.raises(ValueError):
            apply_diff(target, d)
        assert target == bytes(256)

    def test_concurrent_disjoint_diffs_compose(self):
        """The multiple-writer property: two writers touching disjoint
        bytes merge cleanly at the home."""
        base = bytearray(256)
        w1 = bytearray(base)
        w1[0:50] = b"\x01" * 50
        w2 = bytearray(base)
        w2[100:150] = b"\x02" * 50
        home = bytearray(base)
        apply_diff(home, create_diff(0, w1, base))
        apply_diff(home, create_diff(0, w2, base))
        assert home[0:50] == b"\x01" * 50
        assert home[100:150] == b"\x02" * 50
        assert home[50:100] == bytes(50)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, data):
        """create+apply reproduces the dirty copy for arbitrary edits."""
        size = data.draw(st.integers(min_value=1, max_value=512))
        rng_seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(rng_seed)
        twin = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        dirty = bytearray(twin)
        n_edits = data.draw(st.integers(min_value=0, max_value=20))
        for _ in range(n_edits):
            i = data.draw(st.integers(min_value=0, max_value=size - 1))
            dirty[i] = data.draw(st.integers(min_value=0, max_value=255))
        d = create_diff(0, dirty, twin)
        target = bytearray(twin)
        apply_diff(target, d)
        assert target == dirty
        # Runs cover exactly the changed bytes (maximal contiguity).
        assert d.payload_bytes == sum(a != b for a, b in zip(dirty, twin))
