"""The tardis timestamp-lease protocol: clean checked runs, the
no-invalidation-message property, timestamp invariants, registry
metadata, metadata accounting, and exhaustive model checking."""

import pytest

from repro.core.registry import memory_model_of, protocol_info
from repro.core.tardis import TS_BYTES, TardisProtocol
from repro.harness.experiment import RunConfig, run_experiment
from repro.stats.counters import protocol_metadata

#: message types sc-style protocols use that tardis must never send --
#: leases expire, nobody gets invalidated
SC_COHERENCE_MSGS = {"inval", "inval_ack", "recall_ro", "recall_inv"}


def _run(app="lu", protocol="tardis", granularity=1024, nprocs=16,
         check=True):
    return run_experiment(
        RunConfig(app=app, protocol=protocol, granularity=granularity,
                  nprocs=nprocs, scale="tiny"),
        check=check,
    )


class TestTardisRuns:
    @pytest.mark.parametrize("app", ["lu", "fft", "ocean-rowwise",
                                     "water-nsquared"])
    @pytest.mark.parametrize("granularity", [1024, 4096])
    def test_checked_run_clean(self, app, granularity):
        result = _run(app=app, granularity=granularity)
        rep = result.check
        assert rep.ok, rep.describe()
        assert result.stats.parallel_time_us > 0

    def test_no_invalidation_messages(self):
        result = _run(app="ocean-rowwise")
        sent = set(result.stats.msg_count)
        assert not (sent & SC_COHERENCE_MSGS), sent
        # Only tardis's own message vocabulary goes on the wire.
        assert sent <= {
            "t_read_req", "t_read_reply", "t_write_req", "t_write_reply",
            "t_wb_req", "t_wb_data", "t_own_ack",
            "lock_acq", "lock_rel", "lock_grant",
            "barrier_arrive", "barrier_release",
        }, sent

    def test_timestamp_invariants_at_end(self):
        result = _run(app="lu")
        p = result.machine.protocol
        assert p.entries, "run never created tardis entries"
        for block, e in p.entries.items():
            assert e.wts <= e.rts, (block, e.wts, e.rts)
            assert not e.busy and e.pending is None
            assert not hasattr(e, "__dict__")
        # Leases never exceed their block's rts.
        for node_leases in p.lease:
            for block, lease in node_leases.items():
                assert lease <= p.entries[block].rts

    def test_busy_entry_queues_requests(self, home_queue_run):
        """A read and a write reaching a busy entry queue behind it,
        start in arrival order, and the drained queue is dropped."""
        e, queued, drained = home_queue_run(
            "tardis", ["_start"], "entries", {2: "w", 4: "r", 3: "w"},
        )
        assert queued == [("t_read_req", 4), ("t_write_req", 3)]
        assert drained == queued
        assert e.pending is None

    def test_interrupt_mechanism_also_clean(self):
        result = run_experiment(
            RunConfig(app="lu", protocol="tardis", granularity=1024,
                      nprocs=16, scale="tiny", mechanism="interrupt"),
            check=True,
        )
        assert result.check.ok, result.check.describe()


class TestTardisRegistry:
    def test_registered_with_lrc_model(self):
        info = protocol_info("tardis")
        assert info.cls is TardisProtocol
        assert info.memory_model == "lrc"
        assert info.uses_notices is False
        assert memory_model_of("tardis") == "lrc"


class TestTardisMetadata:
    def test_per_block_metadata_flat_in_n(self):
        per_entry = TS_BYTES + 4  # wts + rts + owner
        for n in (16, 128):
            result = _run(nprocs=n, check=False)
            m = protocol_metadata(result.machine)
            entries = len(result.machine.protocol.entries)
            assert m.components["timestamps"] == per_entry * entries
            assert m.per_block == per_entry  # flat: independent of n
            # pts/leases are O(1)-width per node/copy, reported aside.
            assert set(m.node_components) == {"pts", "leases"}

    def test_smaller_than_sc_at_128(self):
        """The scale-smoke CI assertion, pinned as a test."""
        tardis = protocol_metadata(_run(nprocs=128, check=False).machine)
        sc = protocol_metadata(
            _run(protocol="sc", nprocs=128, check=False).machine
        )
        assert tardis.meta_bytes < sc.meta_bytes


class TestTardisModelChecking:
    @pytest.mark.parametrize("litmus", ["sb", "mp", "lb"])
    def test_exhaustive_litmus(self, litmus):
        from repro.mc import Explorer, get_litmus

        r = Explorer(get_litmus(litmus), "tardis", 64,
                     max_schedules=3000).run()
        assert r.complete, f"{litmus} did not exhaust in budget"
        assert not r.forbidden, r.forbidden
        assert r.check_failures == 0
