"""White-box tests of protocol internals: home routing and forwarding,
runtime first-touch migration, the SC recall/poison machinery, and the
HLRC/SW-LRC state tables."""

import numpy as np
import pytest

from repro import Machine, MachineParams, run_program
from repro.harness.experiment import RunConfig, run_experiment
from repro.memory.access_control import INV, RO, RW


def make(protocol, g=1024, n=4):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol=protocol)


class TestFirstTouchMigration:
    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc"])
    def test_store_claims_home_for_toucher(self, protocol):
        """An unplaced block's home migrates to the first storer."""
        m = make(protocol)
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        # Pick a writer that is NOT the static home so the migration
        # actually moves the block.
        static = m.home.static_home(block)
        writer = (static + 1) % 4

        def program(dsm, rank, nprocs):
            if rank == writer:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == writer
        assert m.home.migrations >= 1

    def test_sc_load_claims_home(self):
        """Under SC a load is a touch (Section 2)."""
        m = make("sc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        reader = (static + 2) % 4

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == reader

    def test_hlrc_load_does_not_claim_for_reader(self):
        """Under HLRC only a store migrates; a load leaves the block at
        its static home."""
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        reader = (static + 2) % 4

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == static

    def test_claim_from_remote_static_home_costs_messages(self):
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        writer = (static + 1) % 4

        def program(dsm, rank, nprocs):
            if rank == writer:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.msg_count["home_claim"] == 1


class TestForwarding:
    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc"])
    def test_stale_route_forwarded_and_learned(self, protocol):
        """A requester without a cached home hint sends to the static
        home; if the block migrated, the request is forwarded once and
        the requester learns the real home."""
        m = make(protocol)
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        owner = (static + 1) % 4
        reader = (static + 2) % 4
        m.place(seg.base, 1024, owner)  # migrated away from static

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.forwarded_requests >= 1
        assert m.home.cached_home(reader, block) == owner

    def test_second_request_goes_direct(self):
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        owner = (static + 1) % 4
        reader = (static + 2) % 4
        m.place(seg.base, 1024, owner)

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
                # Invalidate locally, then re-fetch: no second forward.
                m.nodes[reader].access.invalidate(block)
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.forwarded_requests == 1


class TestSCInternals:
    def test_directory_tracks_owner_and_sharers(self):
        m = make("sc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        e = m.protocol.dir[block]
        assert e.owner == 2
        assert e.sharers == set()
        # The old reader's tag was invalidated.
        assert m.nodes[1].access.tag(block) == INV
        assert m.nodes[2].access.tag(block) == RW

    def test_recall_downgrades_owner_on_remote_read(self):
        m = make("sc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(1, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        # Owner 1 was recalled to read-only; both are sharers now.
        assert m.nodes[1].access.tag(block) == RO
        assert m.nodes[2].access.tag(block) == RO
        assert m.protocol.dir[block].owner is None
        assert {1, 2} <= m.protocol.dir[block].sharers
        assert r.stats.writebacks >= 1

    def test_no_stale_protocol_state_leaks(self):
        """After a quiescent run, no in-flight or deferred entries
        remain in the SC bookkeeping."""
        m = make("sc", g=256)
        seg = m.alloc(4096, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.touch_write(seg.base + rank * 1024, 512,
                                       pattern=rank + 1)
            yield from dsm.barrier(0, participants=nprocs)
            yield from dsm.touch_read(seg.base, 4096)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.protocol._inflight == set()
        assert m.protocol._poisoned == set()
        assert m.protocol._deferred_recalls == {}
        for e in m.protocol.dir.values():
            assert not e.busy
            assert e.pending is None

    @pytest.mark.parametrize("protocol", ["sc", "dc"])
    def test_busy_entry_queues_reads_and_writes(self, protocol, home_queue_run):
        """A write and a read reaching a busy directory entry queue
        behind it, start in arrival order, and the drained queue is
        dropped."""
        e, queued, drained = home_queue_run(
            protocol, ["_start_read", "_start_write"], "dir",
            {2: "r", 4: "w", 3: "r"},
        )
        assert queued == [("write_req", 4), ("read_req", 3)]
        assert drained == queued
        assert e.pending is None


@pytest.mark.parametrize("protocol,records", [
    ("sc", "dir"), ("dc", "dir"), ("swlrc", "owners"), ("tardis", "entries"),
])
def test_idle_records_carry_no_queue(protocol, records):
    """After a full cell every home record and lock holder is idle and
    holds no queue, and the records are slotted (no instance dict).
    At 64 B on 4 nodes, requests queue at the home in volrend-original
    and lock successors wait at their holders in water-nsquared."""
    for app in ("volrend-original", "water-nsquared"):
        m = run_experiment(RunConfig(app=app, protocol=protocol, granularity=64,
                                     nprocs=4, scale="tiny")).machine
        entries = list(getattr(m.protocol, records).values())
        holders = list(m.locks._holder.values())
        assert entries and holders, app
        for e in entries:
            assert not e.busy and e.pending is None, app
            assert not hasattr(e, "__dict__")
        for st in holders:
            assert st.waiters is None, app
            assert not hasattr(st, "__dict__")


class TestSWLRCInternals:
    def test_busy_owner_entry_queues_own_requests(self, home_queue_run):
        """Ownership requests reaching a transfer in flight queue
        behind it, start in arrival order, and the drained queue is
        dropped."""
        e, queued, drained = home_queue_run(
            "swlrc", ["_start_own"], "owners", {2: "w", 4: "w", 3: "w"},
        )
        assert queued == [("own_req", 4), ("own_req", 3)]
        assert drained == queued
        assert e.pending is None

    def test_hint_points_at_freshest_writer(self):
        m = make("swlrc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            # Writers 1 then 2, serialized by the lock.
            if rank in (1, 2):
                yield from dsm.compute(100.0 * rank)
                yield from dsm.acquire(9)
                yield from dsm.touch_write(seg.base, 64, pattern=rank)
                yield from dsm.release(9)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 3:
                yield from dsm.acquire(9)
                yield from dsm.release(9)
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        proto = m.protocol
        # Rank 3's hint names the last writer (2) with the top version.
        hint = proto.hint[3].get(block)
        assert hint is not None and hint[1] == 2

    def test_owner_set_consistent_with_directory(self):
        m = make("swlrc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_write(seg.base + 100, 64, pattern=2)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        proto = m.protocol
        assert proto.owners[block].owner == 2
        assert block in proto.owned[2]
        assert block not in proto.owned[1]


class TestHLRCInternals:
    def test_no_twins_left_after_quiescence(self):
        m = make("hlrc", g=1024)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 2048, pattern=7)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert all(not t for t in m.protocol.twins)
        assert all(not d for d in m.protocol.dirty)

    def test_vector_clocks_converge_at_barrier(self):
        m = make("hlrc", g=1024)
        seg = m.alloc(8192, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.touch_write(seg.base + rank * 2048, 128,
                                       pattern=rank + 1)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        vts = {m.protocol.vt[i].as_tuple() for i in range(4)}
        assert len(vts) == 1  # everyone merged to the same clock
