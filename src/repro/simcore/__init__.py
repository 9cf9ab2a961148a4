"""The simulator-core kernel layer: fast (numpy) vs fallback (pure python).

Every byte- and integer-plane operation the simulator's hot paths need
-- block buffers, access-tag tables, vector-clock merges, twin/diff run
extraction, sequence-indexed link buffers -- is defined once as a small
kernel interface and implemented twice:

* :mod:`repro.simcore.fastcore` -- flat ``numpy`` arrays, whole-buffer
  compares, ``np.flatnonzero``-style run extraction (the default
  whenever numpy imports);
* :mod:`repro.simcore.pycore` -- ``bytearray``/``array``/``memoryview``
  only, no third-party imports at all.

Both implementations conform to the same interface and -- this is the
contract the differential tests in ``tests/test_simcore.py`` and the
bit-identity CI job pin -- produce *identical observable state* for
identical operation sequences, down to the bytes of every diff run and
the order of every tag-table iteration.  A simulation run is therefore
bit-identical (same stats-sha) whichever backend executed it.

Backend selection happens once, at import:

* ``REPRO_SIMCORE=fast`` (or ``numpy``) forces the numpy backend and
  raises ``ImportError`` if numpy is unavailable;
* ``REPRO_SIMCORE=python`` (or ``fallback``/``pure``) forces the pure
  python backend even when numpy is installed -- this is what the CI
  fallback-parity leg and the bit-identity matrix use;
* unset (or ``auto``): numpy if it imports, pure python otherwise.

The selected backend's name is exposed as :data:`BACKEND` (``"fast"``
or ``"python"``) and is reported by ``repro-dsm perf``.
"""

from __future__ import annotations

import os

_ENV_VAR = "REPRO_SIMCORE"
_choice = os.environ.get(_ENV_VAR, "auto").strip().lower()

if _choice in ("fast", "numpy"):
    from repro.simcore import fastcore as _impl
elif _choice in ("python", "fallback", "pure"):
    from repro.simcore import pycore as _impl
elif _choice in ("auto", ""):
    try:
        from repro.simcore import fastcore as _impl  # type: ignore[no-redef]
    except ImportError:  # numpy absent
        from repro.simcore import pycore as _impl  # type: ignore[no-redef]
else:
    raise ImportError(
        f"{_ENV_VAR}={_choice!r} is not a simcore backend "
        "(use 'fast', 'python', or 'auto')"
    )

#: the active backend: "fast" (numpy) or "python" (pure fallback)
BACKEND: str = _impl.BACKEND

#: True when the active backend vectorizes through numpy
USING_NUMPY: bool = BACKEND == "fast"

# ----------------------------------------------------------------------
# kernel re-exports (one bound name per kernel; hot callers re-bind
# these as locals/module globals so dispatch costs nothing per call)
# ----------------------------------------------------------------------
# block buffers
alloc_block = _impl.alloc_block
empty_block = _impl.empty_block
frombytes = _impl.frombytes
copy_of = _impl.copy_of
buf_eq = _impl.buf_eq
tobytes = _impl.tobytes
fill = _impl.fill
as_payload = _impl.as_payload

# typed views over raw byte buffers
typed_view = _impl.typed_view
pack_scalar = _impl.pack_scalar
pack_values = _impl.pack_values

# access-tag tables
TagArray = _impl.TagArray
nonzero_u8 = _impl.nonzero_u8

# vector-clock kernels
vc_alloc = _impl.vc_alloc
vc_merge_into = _impl.vc_merge_into
vc_dominates = _impl.vc_dominates

# twin/diff run extraction
diff_runs = _impl.diff_runs

from repro.simcore.dtypes import DType, dtype  # noqa: E402
from repro.simcore.ring import SeqRing  # noqa: E402
from repro.simcore.tags import SHORT_RUN  # noqa: E402

__all__ = [
    "BACKEND",
    "USING_NUMPY",
    "alloc_block",
    "empty_block",
    "frombytes",
    "copy_of",
    "buf_eq",
    "tobytes",
    "fill",
    "as_payload",
    "typed_view",
    "pack_scalar",
    "pack_values",
    "TagArray",
    "nonzero_u8",
    "vc_alloc",
    "vc_merge_into",
    "vc_dominates",
    "diff_runs",
    "DType",
    "dtype",
    "SeqRing",
    "SHORT_RUN",
]
