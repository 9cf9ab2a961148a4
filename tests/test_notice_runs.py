"""Differential test: notice runs vs a per-block reference.

Write notices travel and are applied as runs of consecutive blocks
(:class:`~repro.core.timestamps.NoticeRun`).  The effect of a batch must
equal applying every block's notice one at a time, in payload order,
with the per-block rules of the paper's protocols.  The oracles below
keep those rules in their plainest form; seeded random batches cover
overlapping runs across intervals, equal-version ties between writers,
self-written runs, home blocks and HLRC blocks with live twins, with
runs both shorter and longer than the kernels' short-run cutoffs.
"""

import random

import pytest

from repro import Machine, MachineParams
from repro.core.timestamps import IntervalLog, NoticeRun, notice_blocks
from repro.memory.access_control import INV, RO, RW, AccessControl

G = 64
N_NODES = 4
N_BLOCKS = 96
ME = 0


def _machine(protocol):
    return Machine(MachineParams(n_nodes=N_NODES, granularity=G), protocol=protocol)


def _random_batch(rng):
    """Runs from several intervals: overlapping ranges, versions that
    tie across writers, some written by the applying node itself."""
    runs = []
    for _ in range(rng.randint(0, 10)):
        count = rng.choice([1, 1, 2, 3, 5, 9, 16, 40])
        first = rng.randrange(0, N_BLOCKS - count + 1)
        runs.append(NoticeRun(first, count, rng.randint(1, 4),
                              rng.randrange(N_NODES)))
    return runs


def _per_block(runs):
    for first, count, version, writer in runs:
        for block in range(first, first + count):
            yield block, version, writer


def _homes(rng, machines):
    for block in range(N_BLOCKS):
        home = rng.choice([ME, ME, 1, 2, 3])
        for m in machines:
            m.home.place_region(block * G, G, home)


def _drain(gen):
    return list(gen)


# ----------------------------------------------------------------------
# SW-LRC
# ----------------------------------------------------------------------
def _swlrc_state(rng, machines):
    """Same random per-node state on every machine.  Ownership comes
    with a tag (a protocol invariant), so owned blocks are tagged."""
    hints = {}
    for block in range(N_BLOCKS):
        tag = rng.choice([INV, INV, RO, RW])
        version = rng.choice([None, 1, 2, 3, 4])
        owned = tag != INV and rng.random() < 0.3
        hint = rng.choice([None, None, (rng.randint(1, 4), rng.randrange(N_NODES))])
        if hint is not None:
            hints[block] = hint
        for m in machines:
            p = m.protocol
            m.nodes[ME].access.set_tag(block, tag)
            if version is not None:
                p.version[ME][block] = version
            if owned:
                p.owned[ME].add(block)
            if hint is not None:
                p.hint[ME].update_run(block, 1, *hint)
    return hints


def _swlrc_oracle(m, hints, runs):
    """Per-block SW-LRC notice application."""
    p = m.protocol
    access = m.nodes[ME].access
    p.stats.write_notices_applied += notice_blocks(runs)
    for block, version, writer in _per_block(runs):
        if writer == ME:
            continue
        cur = hints.get(block)
        if cur is None or version > cur[0]:
            hints[block] = (version, writer)
        mine = p.version[ME].get(block)
        if mine is not None and mine >= version:
            continue
        p.owned[ME].discard(block)
        if access.invalidate(block):
            p.stats.invalidations += 1
            p.version[ME].pop(block, None)


@pytest.mark.parametrize("seed", range(60))
def test_swlrc_runs_match_per_block_oracle(seed):
    rng = random.Random(seed)
    run_m, ref_m = _machine("swlrc"), _machine("swlrc")
    _homes(rng, (run_m, ref_m))
    hints = _swlrc_state(rng, (run_m, ref_m))
    for _ in range(3):  # several syncs in a row
        runs = _random_batch(rng)
        _drain(run_m.protocol.apply_sync(
            run_m.nodes[ME], {"vt": (0,) * N_NODES, "notices": runs}))
        _swlrc_oracle(ref_m, hints, runs)
    run_p, ref_p = run_m.protocol, ref_m.protocol
    for block in range(N_BLOCKS):
        assert run_m.nodes[ME].access.tag(block) == ref_m.nodes[ME].access.tag(block)
        assert run_p.hint[ME].get(block) == hints.get(block), block
    assert len(run_p.hint[ME]) == len(hints)
    assert run_p.version[ME] == ref_p.version[ME]
    assert run_p.owned[ME] == ref_p.owned[ME]
    assert run_p.stats.to_dict() == ref_p.stats.to_dict()


# ----------------------------------------------------------------------
# HLRC
# ----------------------------------------------------------------------
def _hlrc_state(rng, machines):
    """Random tags; live twins sit on write-tagged non-home blocks."""
    for block in range(N_BLOCKS):
        tag = rng.choice([INV, INV, RO, RW])
        for m in machines:
            m.nodes[ME].access.set_tag(block, tag)
            if tag == RW and not m.protocol._is_home(ME, block):
                m.protocol.twins[ME][block] = bytearray(G)


def _record_flushes(m):
    """Stand in for the diff flush (which needs the event engine): pop
    the twin and record the order of flushed blocks."""
    flushed = []
    p = m.protocol

    def flush_one(node, block):
        p.twins[node.id].pop(block)
        flushed.append(block)
        yield 1.0

    p._flush_one = flush_one
    return flushed


def _hlrc_oracle(m, runs):
    """Per-block HLRC notice application."""
    p = m.protocol
    node = m.nodes[ME]
    p.stats.write_notices_applied += notice_blocks(runs)
    for block, _, writer in _per_block(runs):
        if writer == ME or p._is_home(ME, block):
            continue
        if block in p.twins[ME]:
            yield from p._flush_one(node, block)
        if node.access.invalidate(block):
            p.stats.invalidations += 1


@pytest.mark.parametrize("seed", range(60))
def test_hlrc_runs_match_per_block_oracle(seed):
    rng = random.Random(seed)
    run_m, ref_m = _machine("hlrc"), _machine("hlrc")
    _homes(rng, (run_m, ref_m))
    _hlrc_state(rng, (run_m, ref_m))
    run_flushed, ref_flushed = _record_flushes(run_m), _record_flushes(ref_m)
    for _ in range(3):
        runs = _random_batch(rng)
        _drain(run_m.protocol.apply_sync(
            run_m.nodes[ME], {"vt": (0,) * N_NODES, "notices": runs}))
        _drain(_hlrc_oracle(ref_m, runs))
    assert run_flushed == ref_flushed
    for block in range(N_BLOCKS):
        assert run_m.nodes[ME].access.tag(block) == ref_m.nodes[ME].access.tag(block)
    assert run_m.protocol.twins[ME].keys() == ref_m.protocol.twins[ME].keys()
    assert run_m.protocol.stats.to_dict() == ref_m.protocol.stats.to_dict()


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_tagged_in_matches_per_block_scan(seed):
    rng = random.Random(seed)
    access = AccessControl()
    density = rng.choice([0.0, 0.05, 0.5, 1.0])
    for block in range(N_BLOCKS):
        if rng.random() < density:
            access.set_tag(block, rng.choice([RO, RW]))
    for _ in range(20):
        lo = rng.randrange(0, N_BLOCKS + 8)
        hi = lo + rng.choice([0, 1, 3, 8, 9, 30, 200])
        want = [b for b in range(lo, hi) if access.tag(b) != INV]
        assert access.tagged_in(lo, hi) == want


# ----------------------------------------------------------------------
# wire count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(100))
def test_compressed_count_matches_block_set(seed):
    rng = random.Random(seed)
    runs = _random_batch(rng) + _random_batch(rng)
    blocks = sorted({b for b, _, _ in _per_block(runs)})
    want = sum(1 for i, b in enumerate(blocks) if i == 0 or b != blocks[i - 1] + 1)
    assert IntervalLog.compressed_count(runs) == want
