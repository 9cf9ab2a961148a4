"""Tests for the distributed lock service."""

import pytest

from repro import Machine, MachineParams, run_program


def make(protocol="sc", n=4, g=1024):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol=protocol)


PROTOCOLS = ["sc", "swlrc", "hlrc", "dc", "erc"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_mutual_exclusion(protocol):
    m = make(protocol)
    inside = []
    violations = []

    def program(dsm, rank, nprocs):
        for _ in range(3):
            yield from dsm.acquire(5)
            if inside:
                violations.append((rank, list(inside)))
            inside.append(rank)
            yield from dsm.compute(10.0)
            inside.remove(rank)
            yield from dsm.release(5)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=4)
    assert violations == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_reacquire_after_release(protocol):
    """A node re-acquiring the lock it last held must not deadlock
    (the manager forwards its request back to itself)."""
    m = make(protocol)

    def program(dsm, rank, nprocs):
        if rank == 0:
            for _ in range(5):
                yield from dsm.acquire(9)
                yield from dsm.compute(1.0)
                yield from dsm.release(9)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=2)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_chained_handoff_is_fifo_per_manager_order(protocol):
    """Requests granted in the order the manager saw them."""
    m = make(protocol, n=8)
    order = []

    def program(dsm, rank, nprocs):
        # Stagger requests so the manager sees them in rank order.
        yield from dsm.compute(1.0 + rank * 200.0)
        yield from dsm.acquire(3)
        order.append(rank)
        yield from dsm.compute(500.0)
        yield from dsm.release(3)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=8)
    assert order == sorted(order)


def test_release_without_hold_rejected():
    m = make()

    def program(dsm, rank, nprocs):
        yield from dsm.release(1)

    with pytest.raises(Exception, match="does not hold"):
        run_program(m, program, nprocs=1)


def test_reentrant_acquire_rejected():
    m = make()

    def program(dsm, rank, nprocs):
        yield from dsm.acquire(1)
        yield from dsm.acquire(1)

    with pytest.raises(Exception, match="re-entered"):
        run_program(m, program, nprocs=1)


def test_lock_acquire_counts():
    m = make()

    def program(dsm, rank, nprocs):
        for _ in range(4):
            yield from dsm.acquire(2)
            yield from dsm.release(2)
        yield from dsm.barrier(0, participants=nprocs)

    r = run_program(m, program, nprocs=3)
    assert r.stats.total_lock_acquires == 12


def test_manager_assignment_round_robin():
    m = make(n=4)
    assert m.locks.manager_of(0) == 0
    assert m.locks.manager_of(5) == 1
    assert m.locks.manager_of(7) == 3


def test_uncontended_acquire_is_fast_contended_is_slower():
    """An uncontended acquire completes in a couple of round trips; a
    contended one waits for the holder."""
    m1 = make()
    t_free = []

    def free(dsm, rank, nprocs):
        t0 = dsm.now
        yield from dsm.acquire(1)
        t_free.append(dsm.now - t0)
        yield from dsm.release(1)

    run_program(m1, free, nprocs=1)
    assert t_free[0] < 500.0  # a few control round trips at most

    m2 = make()
    t_contended = []

    def contended(dsm, rank, nprocs):
        if rank == 0:
            yield from dsm.acquire(1)
            yield from dsm.compute(5000.0)
            yield from dsm.release(1)
        else:
            yield from dsm.compute(100.0)  # ensure rank 0 wins the race
            t0 = dsm.now
            yield from dsm.acquire(1)
            t_contended.append(dsm.now - t0)
            yield from dsm.release(1)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m2, contended, nprocs=2)
    assert t_contended[0] > 4000.0


def test_lrc_lock_messages_carry_vector_bytes():
    """Under the LRC protocols lock messages are bigger (vector
    timestamps travel with requests)."""
    msizes = {}
    for proto in ("sc", "hlrc"):
        m = make(proto)

        def program(dsm, rank, nprocs):
            yield from dsm.acquire(1)
            yield from dsm.release(1)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=2)
        msizes[proto] = r.stats.msg_bytes["lock_req"]
    assert msizes["hlrc"] > msizes["sc"]


def test_successor_waits_at_holder_and_queue_is_dropped():
    """Requests reaching a holder whose tenure is not over wait in its
    queue, are granted in the manager's order, and each drained queue
    is dropped."""
    m = make(n=4)
    holders = m.locks._holder
    waiting = {}
    order = []

    def program(dsm, rank, nprocs):
        yield from dsm.compute({0: 1.0, 1: 100.0, 3: 200.0, 2: 300.0}[rank])
        yield from dsm.acquire(4)
        order.append(rank)
        if rank == 0:
            yield from dsm.compute(2000.0)
            for (node, _), st in sorted(holders.items()):
                waiting[node] = [w[0] for w in st.waiters or ()]
        yield from dsm.release(4)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=4)
    assert waiting == {0: [1], 1: [3], 2: [], 3: [2]}
    assert order == [0, 1, 3, 2]
    assert all(st.waiters is None for st in holders.values())
