"""Shared machinery of the two lazy-release-consistency protocols.

Both SW-LRC and HLRC use timestamp-based coherence control (paper
Sections 2.2/2.3): each node's execution is split into intervals at
release operations; write notices describing modified blocks propagate
with lock grants and barrier releases; invalidations are applied at
acquire time.  The subclasses differ in

* what happens at a release (:meth:`_release_flush`): HLRC eagerly
  diffs and flushes to homes, SW-LRC only bumps versions;
* how a batch of notice runs is applied (:meth:`_apply_notices`):
  HLRC invalidates unless home/writer, SW-LRC compares versions;
* how misses are serviced.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from repro.core.protocol import CoherenceProtocol
from repro.core.timestamps import (
    Clock,
    IntervalLog,
    NoticeRun,
    make_clock,
    notice_blocks,
)


class LRCBase(CoherenceProtocol):
    """Intervals, vector timestamps and write-notice plumbing."""

    memory_model = "lrc"
    uses_notices = True
    touch_on_load = False  # a "touch" is a store for the LRC protocols

    def __init__(self, machine):
        super().__init__(machine)
        n = machine.params.n_nodes
        # Representation picked by width: dense at paper scale, sparse
        # above DENSE_CLOCK_MAX (same observable behavior by contract).
        self.vt: List[Clock] = [make_clock(n) for _ in range(n)]
        self.ilog = IntervalLog(n)
        #: blocks written since the node's last release (notice sources)
        self.dirty: List[Set[int]] = [set() for _ in range(n)]

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _release_flush(self, node) -> Generator:
        """Flush pending modifications; returns the interval's notice
        runs, in ascending block order."""
        raise NotImplementedError

    def _apply_notices(self, node, runs: List[NoticeRun]) -> Generator:
        """Apply a batch of notice runs at acquire time (app context).

        The effect must equal applying each run's blocks one by one, in
        payload order; runs only let the work skip blocks that cannot be
        affected."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # synchronization hooks (called by the lock/barrier services)
    # ------------------------------------------------------------------
    def current_vt(self, node_id: int) -> Tuple[int, ...]:
        return self.vt[node_id].as_tuple()

    def release_prepare(self, node) -> Generator:
        """Close the current interval (and flush, for HLRC)."""
        runs = yield from self._release_flush(node)
        self.ilog.close_interval(node.id, runs)
        self.vt[node.id].tick(node.id)
        self.stats.write_notices_sent += notice_blocks(runs)
        yield self.params.interval_us

    def grant_payload(self, granter_id: int, acq_vt) -> Tuple[Any, int]:
        if acq_vt is None:
            acq_vt = (0,) * self.params.n_nodes
        notices = self.ilog.notices_between(acq_vt, self.vt[granter_id].as_tuple())
        payload = {"vt": self.vt[granter_id].as_tuple(), "notices": notices}
        return payload, self.ilog.compressed_count(notices)

    def barrier_payloads(
        self, vts: Dict[int, Any]
    ) -> Dict[int, Tuple[Any, int]]:
        n = self.params.n_nodes
        merged = [0] * n
        for vt in vts.values():
            for i, x in enumerate(vt):
                if x > merged[i]:
                    merged[i] = x
        out: Dict[int, Tuple[Any, int]] = {}
        for node_id, vt in vts.items():
            notices = self.ilog.notices_between(vt, merged)
            out[node_id] = (
                {"vt": tuple(merged), "notices": notices},
                self.ilog.compressed_count(notices),
            )
        return out

    def apply_sync(self, node, payload) -> Generator:
        if not payload:
            return
        self.vt[node.id].merge(payload["vt"])
        runs = payload["notices"]
        if runs:
            blocks = notice_blocks(runs)
            self.stats.write_notices_applied += blocks
            # Bookkeeping cost of walking the notice list.
            yield self.params.write_notice_us * blocks
            yield from self._apply_notices(node, runs)
