"""Vector timestamps, intervals, and write notices (LRC machinery).

Lazy release consistency divides each node's execution into *intervals*
delimited by release operations.  Each interval carries the set of
*write notices* -- identifiers of blocks the node wrote during the
interval -- stored as :class:`NoticeRun` records, one per run of
consecutive blocks sharing a version.  A vector timestamp ``vt`` on
node ``n`` counts, per node ``i``, how many of ``i``'s intervals ``n``
has seen.  At an acquire the granter sends every interval the acquirer
has not seen (the vector difference), and the acquirer invalidates its
copies of the noticed blocks.

The :class:`IntervalLog` is conceptually replicated through these
messages; we store it centrally for the simulation and charge message
sizes for the notices actually shipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

from repro.simcore import vc_alloc, vc_dominates, vc_merge_into


class NoticeRun(NamedTuple):
    """Write notices for ``count`` consecutive blocks from ``first``.

    Every block of the run was modified by ``owner`` and advertised at
    the same ``version`` (SW-LRC: the block version at the writer's
    release, used to skip stale invalidations and to find the copy for
    one-hop read service; HLRC: the writer's per-block interval count).
    Versions start at 1.  A run is the only notice representation: it
    is built once per release, stored in the :class:`IntervalLog`,
    shipped unchanged in sync payloads and applied per run.  Modelled
    sizes and statistics still count blocks (:func:`notice_blocks`).
    """

    first: int
    count: int
    version: int
    owner: int


def notice_runs(
    noticed: Iterable[Tuple[int, int]], owner: int
) -> List[NoticeRun]:
    """Group ascending ``(block, version)`` pairs into notice runs:
    consecutive blocks with the same version share one run."""
    runs: List[NoticeRun] = []
    first = end = version = -1
    for block, v in noticed:
        if block == end and v == version:
            end += 1
            continue
        if end > first:
            runs.append(NoticeRun(first, end - first, version, owner))
        first, end, version = block, block + 1, v
    if end > first:
        runs.append(NoticeRun(first, end - first, version, owner))
    return runs


def notice_blocks(runs: Iterable[NoticeRun]) -> int:
    """Number of block notices a run batch stands for."""
    return sum(r[1] for r in runs)


#: anything a clock method accepts as "the other side": a component
#: sequence (the wire form) or another clock object
ClockLike = Union[Sequence[int], "Clock"]

#: widest clock the dense representation is kept for; above this
#: :func:`make_clock` switches to the sparse dict form.  16-node paper
#: runs sit far below the threshold, so representation selection cannot
#: perturb paper-scale results (the bit-identity contract).
DENSE_CLOCK_MAX = 64

#: modeled storage cost of one dense component / one sparse entry
_DENSE_COMPONENT_BYTES = 8
_SPARSE_ENTRY_BYTES = 16  # 8-byte key + 8-byte count


def _components(other: ClockLike) -> Sequence[int]:
    """The component sequence of a clock-or-sequence operand."""
    if isinstance(other, VectorClock):
        return other.v  # zero-copy: the kernels take any int sequence
    if isinstance(other, SparseClock):
        return other.as_tuple()
    return other


class Clock:
    """The minimal vector-clock interface consumers may rely on.

    Concrete representations (:class:`VectorClock` dense,
    :class:`SparseClock` dict-backed) are interchangeable behind it;
    call sites must not reach into representation internals (the dense
    buffer attribute is private to the dense class).  Contract:

    * ``merge(other)`` -- elementwise max into self;
    * ``dominates(other)`` -- ``self[i] >= other[i]`` for every i;
    * ``advance(node)`` -- bump one component (interval start);
    * ``bytes_used()`` -- honest storage bytes of this representation;
    * plus ``as_tuple``/``copy``/``__getitem__``/``__len__``.

    ``other`` may be any component sequence (the wire form of a clock)
    or another clock of either representation.
    """

    __slots__ = ()

    def merge(self, other: ClockLike) -> None:
        raise NotImplementedError

    def dominates(self, other: ClockLike) -> bool:
        raise NotImplementedError

    def advance(self, node: int) -> int:
        raise NotImplementedError

    def bytes_used(self) -> int:
        raise NotImplementedError

    def as_tuple(self) -> Tuple[int, ...]:
        raise NotImplementedError


class VectorClock(Clock):
    """A mutable dense vector timestamp over ``n`` nodes.

    The component container comes from ``simcore.vc_alloc``: a plain
    list for the paper's narrow clocks (fastest to index and loop
    over), a dense ``array('q')`` for wide clocks so the fast backend's
    merge/dominates kernels can vectorize over the raw int64 buffer.
    Either way ``v`` supports indexing and item assignment.
    """

    __slots__ = ("v",)

    def __init__(self, n: int):
        self.v = vc_alloc(n)

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out.v = self.v[:]
        return out

    def merge(self, other: ClockLike) -> None:
        # Hot path (every grant/barrier application).
        vc_merge_into(self.v, _components(other))

    def tick(self, node: int) -> int:
        """Start a new interval for ``node``; returns the new count."""
        self.v[node] += 1
        return self.v[node]

    advance = tick

    def bytes_used(self) -> int:
        """Dense cost: every component is materialized."""
        return _DENSE_COMPONENT_BYTES * len(self.v)

    def __getitem__(self, i: int) -> int:
        return self.v[i]

    def __len__(self) -> int:
        return len(self.v)

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(self.v)

    def dominates(self, other: ClockLike) -> bool:
        return vc_dominates(self.v, _components(other))

    def __repr__(self) -> str:  # pragma: no cover
        return f"VC{list(self.v)}"


class SparseClock(Clock):
    """A dict-backed vector timestamp: only nonzero components stored.

    Above :data:`DENSE_CLOCK_MAX` nodes a dense clock costs 8N bytes
    per clock and every node holds one (plus one per lock episode in
    the race detector): O(N^2) machine-wide.  Most components stay zero
    in real executions -- a node's clock has nonzero entries only for
    nodes whose intervals it has transitively synchronized with -- so a
    dict of nonzero components is capacity-honest.

    Observable behavior (every method result, including
    ``as_tuple()``) is identical to :class:`VectorClock` by contract;
    the differential suite in ``tests/test_scaling.py`` pins this
    op-by-op on seeded random schedules.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int):
        self.n = n
        #: nonzero components only: node -> count
        self.c: Dict[int, int] = {}

    def copy(self) -> "SparseClock":
        out = SparseClock.__new__(SparseClock)
        out.n = self.n
        out.c = dict(self.c)
        return out

    def merge(self, other: ClockLike) -> None:
        c = self.c
        if isinstance(other, SparseClock):
            for i, x in other.c.items():
                if x > c.get(i, 0):
                    c[i] = x
            return
        comps = _components(other)
        for i, x in enumerate(comps):
            if x > c.get(i, 0):
                c[i] = x

    def tick(self, node: int) -> int:
        nxt = self.c.get(node, 0) + 1
        self.c[node] = nxt
        return nxt

    advance = tick

    def bytes_used(self) -> int:
        """Sparse cost: one entry per nonzero component."""
        return _SPARSE_ENTRY_BYTES * len(self.c)

    def __getitem__(self, i: int) -> int:
        return self.c.get(i, 0)

    def __len__(self) -> int:
        return self.n

    def as_tuple(self) -> Tuple[int, ...]:
        c = self.c
        return tuple(c.get(i, 0) for i in range(self.n))

    def dominates(self, other: ClockLike) -> bool:
        c = self.c
        if isinstance(other, SparseClock):
            return all(c.get(i, 0) >= x for i, x in other.c.items())
        comps = _components(other)
        for i, x in enumerate(comps):
            if c.get(i, 0) < x:
                return False
        return True

    def nonzero_items(self) -> Iterable[Tuple[int, int]]:
        """(node, count) pairs of the nonzero components."""
        return self.c.items()

    def __repr__(self) -> str:  # pragma: no cover
        return f"SparseVC(n={self.n}, {dict(sorted(self.c.items()))})"


def make_clock(n: int) -> Clock:
    """The capacity-honest clock for an ``n``-node machine: dense at
    and below :data:`DENSE_CLOCK_MAX` nodes (paper scale -- fastest,
    and byte-identical to the pre-refactor representation), sparse
    above it."""
    if n <= DENSE_CLOCK_MAX:
        return VectorClock(n)
    return SparseClock(n)


class IntervalLog:
    """Per-node sequences of closed intervals and their notice runs.

    ``log[i][k]`` is the list of notice runs of node ``i``'s ``k``-th
    closed interval (0-based).  A node's vector component
    ``vt[i] == m`` means it has seen intervals ``0..m-1`` of node ``i``.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self._log: List[List[List[NoticeRun]]] = [[] for _ in range(n_nodes)]

    def close_interval(self, node: int, runs: List[NoticeRun]) -> int:
        """Append a closed interval for ``node``; returns its index."""
        self._log[node].append(runs)
        return len(self._log[node]) - 1

    def intervals_of(self, node: int) -> int:
        return len(self._log[node])

    def notices_between(
        self, seen: Sequence[int], upto: Sequence[int]
    ) -> List[NoticeRun]:
        """The notice runs of every interval the acquirer (``seen``)
        lacks, bounded by what the granter has seen (``upto``), in
        (node, interval) order."""
        out: List[NoticeRun] = []
        log = self._log
        extend = out.extend
        for i in range(self.n_nodes):
            lo, hi = seen[i], upto[i]
            if hi > lo:
                for interval in log[i][lo:hi]:
                    extend(interval)
        return out

    @staticmethod
    def compressed_count(runs: List[NoticeRun]) -> int:
        """Number of contiguous block runs in a notice batch.

        Write notices for consecutive blocks (a processor's contiguous
        partition) are run-length encoded on the wire, so a sweep that
        dirties 100 adjacent blocks costs one notice record, while
        scattered tree-cell notices (Barnes) compress not at all.  The
        batch's runs may overlap or abut (several intervals, several
        versions); merging their sorted ranges counts the maximal runs
        of the noticed block set."""
        merged = 0
        end = -1
        for first, count, _, _ in sorted(runs):
            if first > end:
                merged += 1
            if first + count > end:
                end = first + count
        return merged
