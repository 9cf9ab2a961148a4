"""Typed shared arrays over the DSM address space.

These provide the convenience layer the correctness tests and example
programs use: real values move through the protocols, so a value
written on one node under proper synchronization is exactly the value
read on another.

Element types are described by :func:`repro.simcore.dtype` (which
accepts numpy dtypes, python ``float``/``int``, and string names), and
values are packed into byte arrays and read back as zero-copy numpy
views by the simcore kernels.

All accessors are generators (they may fault) and must be driven with
``yield from`` inside an application process.
"""

from __future__ import annotations

from typing import Generator, Tuple

from repro.memory.address_space import Segment
from repro.runtime.dsm import Dsm
from repro.simcore import dtype as _dtype
from repro.simcore import pack_scalar, pack_values, typed_view


class SharedArray:
    """A 1-D typed array in shared memory.

    Create one per machine (the segment is shared); access it through a
    node's :class:`Dsm` handle passed per call.
    """

    def __init__(self, machine, name: str, length: int, dtype="float64"):
        self.dtype = _dtype(dtype)
        self.length = length
        self.itemsize = self.dtype.itemsize
        self.segment: Segment = machine.alloc(length * self.itemsize, name)
        self.machine = machine

    def addr(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        return self.segment.base + index * self.itemsize

    def nbytes_of(self, count: int) -> int:
        return count * self.itemsize

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, dsm: Dsm, index: int) -> Generator:
        raw = yield from dsm.read(self.addr(index), self.itemsize)
        return typed_view(raw, self.dtype)[0]

    def set(self, dsm: Dsm, index: int, value) -> Generator:
        yield from dsm.write(self.addr(index), pack_scalar(value, self.dtype))

    # ------------------------------------------------------------------
    # slice access
    # ------------------------------------------------------------------
    def get_slice(self, dsm: Dsm, start: int, stop: int) -> Generator:
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slice [{start}:{stop}] out of range")
        raw = yield from dsm.read(self.addr(start) if stop > start else self.segment.base,
                                  (stop - start) * self.itemsize)
        return typed_view(raw, self.dtype)

    def set_slice(self, dsm: Dsm, start: int, values) -> Generator:
        stop = start + len(values)
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slice [{start}:{stop}] out of range")
        if len(values) == 0:
            return
        raw = pack_values(values, (len(values),), self.dtype)
        yield from dsm.write(self.addr(start), raw)

    # ------------------------------------------------------------------
    # initialization (pre-parallel, no simulated cost)
    # ------------------------------------------------------------------
    def init(self, values) -> None:
        if len(values) != self.length:
            raise ValueError("init length mismatch")
        self.machine.init_data(
            self.segment.base, pack_values(values, (self.length,), self.dtype)
        )

    def place(self, start: int, stop: int, node: int) -> None:
        """Declarative home placement of an index range."""
        if stop <= start:
            return
        self.machine.place(
            self.addr(start), (stop - start) * self.itemsize, node
        )


class SharedMatrix:
    """A row-major 2-D typed matrix in shared memory."""

    def __init__(self, machine, name: str, shape: Tuple[int, int], dtype="float64"):
        self.rows, self.cols = shape
        self.dtype = _dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self.row_bytes = self.cols * self.itemsize
        self.segment: Segment = machine.alloc(self.rows * self.row_bytes, name)
        self.machine = machine

    def addr(self, r: int, c: int = 0) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r},{c}) out of range {self.rows}x{self.cols}")
        return self.segment.base + r * self.row_bytes + c * self.itemsize

    def get(self, dsm: Dsm, r: int, c: int) -> Generator:
        raw = yield from dsm.read(self.addr(r, c), self.itemsize)
        return typed_view(raw, self.dtype)[0]

    def set(self, dsm: Dsm, r: int, c: int, value) -> Generator:
        yield from dsm.write(self.addr(r, c), pack_scalar(value, self.dtype))

    def get_row(self, dsm: Dsm, r: int) -> Generator:
        raw = yield from dsm.read(self.addr(r, 0), self.row_bytes)
        return typed_view(raw, self.dtype)

    def set_row(self, dsm: Dsm, r: int, values) -> Generator:
        if len(values) != self.cols:
            raise ValueError("row length mismatch")
        raw = pack_values(values, (self.cols,), self.dtype)
        yield from dsm.write(self.addr(r, 0), raw)

    def init(self, values) -> None:
        raw = pack_values(values, (self.rows, self.cols), self.dtype)
        self.machine.init_data(self.segment.base, raw)

    def place_rows(self, start: int, stop: int, node: int) -> None:
        if stop <= start:
            return
        self.machine.place(self.addr(start, 0), (stop - start) * self.row_bytes, node)
