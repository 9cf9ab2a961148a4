"""Span tracing for the traced pass, installed from outside the program.

Every span is timed at a call into one layer's public function: the
wrapper goes on the instance (a machine's engine, nodes, protocol and
sync services), on the module global where the caller binds the name
(``repro.core.hlrc.create_diff``, ``repro.core.diff.diff_runs``,
``repro.runtime.program.Dsm``, ``repro.mc.litmus.Machine``,
``repro.mc.explore.install_checkers``), or -- for the slotted classes
whose instances are created inside the program (clocks, access tags)
-- on the class for the duration of the pass.  Everything is undone
when the pass ends.

Generator entry points (faults, ``apply_sync``, ``release_prepare``,
``Dsm`` region operations, rank programs) are timed per resume: a
span opens each time the generator is resumed and closes when it
yields, so time the generator spends suspended in simulated waits is
never counted.

A span's self time is its duration minus the time its child spans
cover.  Self times and call counts are aggregated for every span; the
span records themselves (name, trace id, start, end, id, parent) are
kept in memory up to :data:`SPAN_CAP` and written at exit as Chrome
trace-event JSON, which Perfetto and ``chrome://tracing`` open.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List

#: span records kept for the trace file (aggregates cover every span)
SPAN_CAP = 100_000


class Tracer:
    """Span stack, per-name self-time aggregates and span records."""

    def __init__(self, span_cap: int = SPAN_CAP):
        #: open spans, innermost last: [child_seconds, span_id]
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: plain call counters (no span), e.g. tag invalidations
        self.counts: Dict[str, int] = defaultdict(int)
        #: (name, trace_id, start, end, span_id, parent_id)
        self.spans: List[tuple] = []
        self.span_cap = span_cap
        self.dropped = 0
        self.trace_id = 0
        self.trace_names: Dict[int, str] = {}
        self._next_id = 1
        self.t_origin = perf_counter()

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _open(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, t0: float, t1: float) -> None:
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        self.self_s[name] += dur - frame[0]
        self.calls[name] += 1
        parent = 0
        if stack:
            top = stack[-1]
            top[0] += dur
            parent = top[1]
        if len(self.spans) < self.span_cap:
            self.spans.append((name, self.trace_id, t0, t1, frame[1], parent))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, t0, perf_counter())

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call timed as one span named ``name``."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame = open_()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, t0, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def drive(self, name: str, gen) -> Iterator:
        """Re-yield ``gen``'s effects, timing each resume as a span."""
        open_, close = self._open, self._close
        value = None
        exc = None
        while True:
            frame = open_()
            t0 = perf_counter()
            try:
                effect = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                close(name, frame, t0, perf_counter())
                return stop.value
            except BaseException:
                close(name, frame, t0, perf_counter())
                raise
            close(name, frame, t0, perf_counter())
            exc = None
            try:
                value = yield effect
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # forwarded into ``gen``
                value, exc = None, e

    def wrap_gen(self, name: str, genfn: Callable) -> Callable:
        """``genfn`` returning generators whose resumes are spans."""
        drive = self.drive

        def traced(*args, **kwargs):
            return drive(name, genfn(*args, **kwargs))

        traced.__wrapped__ = genfn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted (no span, so almost free)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def chrome_trace(self, metadata: dict) -> dict:
        """The recorded spans as a Chrome trace-event document."""
        origin = self.t_origin
        events = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": label}}
            for tid, label in sorted(self.trace_names.items())
        ]
        for name, tid, t0, t1, sid, parent in self.spans:
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": sid, "parent": parent},
            })
        meta = dict(metadata, spans_recorded=len(self.spans),
                    spans_dropped=self.dropped)
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": meta}

    def write(self, path, metadata: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _is_checker(hook) -> bool:
    return type(hook).__module__.startswith("repro.check.")


def _wrap_checker(tracer: Tracer, hook) -> None:
    """Time every hook method the checker overrides, on the instance."""
    from repro.hooks import HOOK_METHODS, Hooks

    for name in HOOK_METHODS:
        method = getattr(hook, name)
        if getattr(method, "__func__", None) is not getattr(Hooks, name):
            setattr(hook, name, tracer.wrap("check.hooks", method))
    if hasattr(hook, "after_message"):
        hook.after_message = tracer.wrap("check.hooks", hook.after_message)


def instrument_machine(
    tracer: Tracer, machine, on_run_end: Callable, regions: "_RegionStats"
) -> None:
    """Install the per-instance wrappers on a freshly built machine.

    ``on_run_end(machine)`` is called after every ``engine.run`` so the
    caller can read the run's counters while the machine is alive.
    Faulting blocks are noted in ``regions`` outside the fault spans.
    """
    wrap, wrap_gen = tracer.wrap, tracer.wrap_gen
    engine = machine.engine
    run = wrap("sim.dispatch", engine.run)

    def run_and_report(*args, **kwargs):
        try:
            return run(*args, **kwargs)
        finally:
            on_run_end(machine)

    engine.run = run_and_report
    set_policy = engine.set_policy

    def traced_set_policy(policy):
        if policy is not None:
            policy.choose = wrap("mc.choose", policy.choose)
        set_policy(policy)

    engine.set_policy = traced_set_policy
    machine.send = wrap("net.send", machine.send)
    for node in machine.nodes:
        node.deliver = wrap("cluster.deliver", node.deliver)
    protocol = machine.protocol
    protocol.on_message = wrap("core.on_message", protocol.on_message)
    protocol.read_fault = _fault_recorder(
        regions, wrap_gen("core.fault", protocol.read_fault)
    )
    protocol.write_fault = _fault_recorder(
        regions, wrap_gen("core.fault", protocol.write_fault)
    )
    protocol.apply_sync = wrap_gen("core.apply_sync", protocol.apply_sync)
    protocol.release_prepare = wrap_gen(
        "core.release_prepare", protocol.release_prepare
    )
    protocol.grant_payload = wrap("core.sync_payload", protocol.grant_payload)
    protocol.barrier_payloads = wrap(
        "core.sync_payload", protocol.barrier_payloads
    )
    machine.locks.on_message = wrap("sync.on_message", machine.locks.on_message)
    machine.barriers.on_message = wrap(
        "sync.on_message", machine.barriers.on_message
    )
    add_hooks = machine.add_hooks

    def traced_add_hooks(hook):
        if _is_checker(hook):
            _wrap_checker(tracer, hook)
        return add_hooks(hook)

    machine.add_hooks = traced_add_hooks


class _RegionStats:
    """Blocks reached by ``Dsm`` region operations, and how many faulted."""

    __slots__ = ("reached", "faulted", "open_ops")

    def __init__(self) -> None:
        self.reached = 0
        self.faulted = 0
        #: fault-block sets of the region ops currently resuming
        self.open_ops: List[set] = []


def _traced_dsm_class(tracer: Tracer, regions: _RegionStats):
    """A ``Dsm`` subclass whose region operations are traced."""
    from repro.runtime.dsm import Dsm

    open_, close = tracer._open, tracer._close
    calls = tracer.counts

    def region_op(gen, blocks: int):
        calls["runtime.region_ops"] += 1
        regions.reached += blocks
        faulted: set = set()
        ops = regions.open_ops
        value = None
        try:
            while True:
                frame = open_()
                ops.append(faulted)
                t0 = perf_counter()
                try:
                    effect = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close("runtime.access", frame, t0, perf_counter())
                    ops.pop()
                value = yield effect
        finally:
            regions.faulted += len(faulted)

    class TracedDsm(Dsm):
        __slots__ = ()

        def read(self, addr, size):
            n = len(self._bs.blocks_in_region(addr, size))
            return region_op(Dsm.read(self, addr, size), n)

        def write(self, addr, data):
            n = len(self._bs.blocks_in_region(addr, len(data)))
            return region_op(Dsm.write(self, addr, data), n)

        def touch_read(self, addr, size):
            n = len(self._bs.blocks_in_region(addr, size))
            return region_op(Dsm.touch_read(self, addr, size), n)

        def touch_write(self, addr, size, *, pattern=-1):
            n = len(self._bs.blocks_in_region(addr, size))
            return region_op(
                Dsm.touch_write(self, addr, size, pattern=pattern), n
            )

    return TracedDsm


def _fault_recorder(regions: _RegionStats, fault: Callable) -> Callable:
    """Note the faulting block in the region op that is resuming."""

    def recorded(node, block):
        if regions.open_ops:
            regions.open_ops[-1].add(block)
        return fault(node, block)

    return recorded


@contextlib.contextmanager
def traced_program(tracer: Tracer, make_machine: Callable) -> Iterator[_RegionStats]:
    """Patch the module globals and classes the traced pass needs.

    ``make_machine`` replaces ``repro.mc.litmus.Machine`` (litmus
    instances build their machine through it).  Yields the region-op
    statistics collected while the patches are in place.
    """
    from importlib import import_module

    # import_module: ``repro.mc.explore`` the module is shadowed on its
    # package by the function of the same name
    diff_mod = import_module("repro.core.diff")
    hlrc_mod = import_module("repro.core.hlrc")
    explore_mod = import_module("repro.mc.explore")
    litmus_mod = import_module("repro.mc.litmus")
    program_mod = import_module("repro.runtime.program")
    from repro.core.timestamps import SparseClock, VectorClock
    from repro.memory.access_control import AccessControl

    regions = _RegionStats()
    saved = []
    inherited = object()

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner).get(attr, inherited)))
        setattr(owner, attr, value)

    try:
        patch(hlrc_mod, "create_diff", tracer.wrap("diff.create", hlrc_mod.create_diff))
        patch(hlrc_mod, "apply_diff", tracer.wrap("diff.apply", hlrc_mod.apply_diff))
        patch(diff_mod, "diff_runs", tracer.wrap("simcore.diff_runs", diff_mod.diff_runs))
        for cls in (VectorClock, SparseClock):
            patch(cls, "merge", tracer.wrap("timestamps.merge", cls.merge))
            patch(cls, "dominates", tracer.wrap("timestamps.merge", cls.dominates))
        patch(AccessControl, "invalidate",
              tracer.counter("memory.tag_invalidate", AccessControl.invalidate))
        patch(program_mod, "Dsm", _traced_dsm_class(tracer, regions))
        patch(litmus_mod, "Machine", make_machine)
        patch(explore_mod, "install_checkers",
              tracer.wrap("check.install", explore_mod.install_checkers))
        yield regions
    finally:
        for owner, attr, value in reversed(saved):
            if value is inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
