"""Shared fixtures: the checked-execution harness for repro.check."""

import pytest

from repro import Machine, MachineParams, run_program
from repro.check import install_checkers


@pytest.fixture
def checked_run():
    """Run a program under the race detector and invariant sanitizer.

    Usage::

        def build(machine):
            seg = machine.alloc(1024, "x")
            def program(dsm, rank, nprocs):
                yield from dsm.touch_write(seg.base, 64)
            return program

        report = checked_run(build, protocol="hlrc", nprocs=2)

    ``build(machine)`` does the allocation/placement and returns the
    program; the checkers are installed before the program runs.
    Returns the :class:`~repro.check.CheckReport`.
    """

    def _run(
        build,
        *,
        protocol="hlrc",
        granularity=256,
        nprocs=2,
        race_granularity="word",
        **machine_kw,
    ):
        machine = Machine(
            MachineParams(n_nodes=nprocs, granularity=granularity),
            protocol=protocol,
            **machine_kw,
        )
        program = build(machine)
        checkers = install_checkers(machine, race_granularity=race_granularity)
        run_program(machine, program, nprocs=nprocs)
        return checkers.report()

    return _run


@pytest.fixture
def home_queue_run():
    """Queue requests behind a busy home record and watch them drain.

    Node 1 writes a block homed at node 0.  After a barrier, nodes 2, 4
    and 3 fault on it about 20 us apart (``ops`` maps rank -> ``"r"`` or
    ``"w"``), inside the transaction node 2's request opens, so the
    requests of nodes 4 and 3 queue behind it.  ``starts`` names the
    protocol methods that begin a home transaction and ``records`` the
    protocol's block -> record dict.

    Returns ``(record, queued, drained)``: the block's record after the
    run, the ``(mtype, requester)`` of each request a handler left
    queued, in arrival order, and the same requests in the order their
    transactions first started.
    """

    def _run(protocol, starts, records, ops):
        machine = Machine(MachineParams(n_nodes=5, granularity=1024), protocol=protocol)
        seg = machine.alloc(1024, "x")
        machine.place(seg.base, 1024, 0)
        block = seg.base // 1024
        p = machine.protocol
        started, queued = [], []

        def spy_start(orig):
            def start(node, msg, e):
                if not any(m is msg for m in started):
                    started.append(msg)
                return orig(node, msg, e)
            return start

        def spy_handler(orig):
            def handler(node, msg):
                orig(node, msg)
                e = getattr(p, records).get(msg.block)
                if e is not None and e.pending and any(m is msg for m in e.pending):
                    queued.append(msg)
            return handler

        for name in starts:
            setattr(p, name, spy_start(getattr(p, name)))
        for mtype, orig in list(p._handlers.items()):
            p._handlers[mtype] = spy_handler(orig)
        delay = {2: 1.0, 4: 20.0, 3: 40.0}

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)
            if rank in ops:
                yield from dsm.compute(delay[rank])
                if ops[rank] == "w":
                    yield from dsm.touch_write(seg.base, 64, pattern=rank)
                else:
                    yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(machine, program, nprocs=5)

        def who(msgs):
            return [(m.mtype, p.requester_of(m)[0]) for m in msgs]

        drained = [m for m in started if any(q is m for q in queued)]
        return getattr(p, records)[block], who(queued), who(drained)

    return _run
