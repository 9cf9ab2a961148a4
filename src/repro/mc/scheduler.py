"""Controlled scheduling of one simulated machine for model checking.

:class:`ControlledScheduler` is the :class:`~repro.sim.engine.SchedulerPolicy`
the exploration driver installs on a machine under test.  Per dispatch it

* computes the **enabled set** -- the engine's ready events minus the
  orderings the wire guarantees (see below); exploring only enabled
  events keeps every explored schedule a *feasible* schedule, so a
  counterexample is never an artifact of reordering the network could
  not produce;
* follows a **forced schedule** (a list of event sequence numbers) as
  far as it reaches, then continues deterministically with the lowest
  ``(time, seq)`` enabled event.  Sequence numbers are assigned
  deterministically given identical dispatch choices, so a forced
  prefix replays the exact same partial execution on a fresh machine --
  the basis of stateless DFS backtracking;
* records a :class:`Step` per dispatch: the chosen event, the enabled
  alternatives, the event's **dependency footprint** (which node,
  blocks, locks and barriers it touched), and its creation parent.
  Footprints drive the partial-order reduction in
  :mod:`repro.mc.explore`; parentage lets the explorer map an event
  back to the pending ancestor that leads to it.  A replayed step whose
  record an earlier execution passed in reuses that record, once the
  forced seq and the whole enabled set are checked equal to it.

Wire-order constraints preserved (the audited contract of
:mod:`repro.net.myrinet`, pinned by the network tests): messages on the
same (src, dst) link deliver in send order unless the later message is
strictly smaller (small messages may overtake large ones, never the
reverse); node-local messages are FIFO among themselves; and handler
completions at one node retire in delivery order (handlers of a node
serialize on its CPU).  Everything else -- cross-link arrival order,
notification timing, process resumption interleaving -- is fair game
for exploration.

Footprints are *dynamic*: a base footprint is derived from the event's
callable (delivery and handler events name their message and node; a
process resumption names its rank), and the instrumentation hooks
(:class:`~repro.hooks.Hooks`) add the blocks/locks/barriers the event
actually touched while it ran.  Unrecognized callables get a
conflicts-with-everything footprint, which can only over-approximate
(more interleavings explored, never fewer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hooks import Hooks
from repro.sim.engine import SchedulerPolicy, SimulationError
from repro.sim.process import Process

#: footprint element that conflicts with every other footprint
GLOBAL = ("*",)


class ReplayDivergence(SimulationError):
    """A forced schedule asked for an event that is not enabled, or a
    replayed step saw other enabled events than its record holds.

    Replays are deterministic, so this indicates either a corrupted
    schedule (wrong litmus/protocol/granularity for the trace) or
    nondeterminism in the simulator -- both are bugs, never expected.
    """


class TraceBudgetExceeded(SimulationError):
    """One schedule ran more steps than the configured budget."""


@dataclass
class Step:
    """One dispatched event in an explored schedule."""

    #: engine sequence number -- the event's stable identity across
    #: replays that share a prefix
    seq: int
    #: simulation time the event carried (informational; exploration
    #: ignores it)
    time: float
    #: human-readable description (see trace rendering)
    label: str
    #: dependency footprint accumulated while the event ran
    resources: FrozenSet[tuple] = frozenset()
    #: seqs of every event that was enabled when this one was chosen
    enabled: Tuple[int, ...] = ()
    #: seq of the event whose dispatch created this one (None for
    #: events posted before the run started)
    parent: Optional[int] = None


def conflict(a: FrozenSet[tuple], b: FrozenSet[tuple]) -> bool:
    """Do two footprints conflict (their dispatch order can matter)?"""
    if GLOBAL in a or GLOBAL in b:
        return True
    return not a.isdisjoint(b)


class _FootprintHooks(Hooks):
    """Feeds application-level observations into the footprint of the
    currently executing event."""

    def __init__(self, sched: "ControlledScheduler"):
        self._s = sched

    def on_region(self, node_id, addr, size, write):
        s = self._s
        blocks = frozenset(
            ("blk", b) for b in s.blockspace.blocks_in_region(addr, size)
        )
        # Attribute the region's blocks to this node's later resumption
        # events too: protocol continuations (tag flips, version bumps)
        # run in frames the hooks cannot see.
        s.proc_blocks[node_id] = blocks
        if s.fp is not None:
            s.fp.update(blocks)

    def on_write_fault(self, node_id, block):
        if self._s.fp is not None:
            self._s.fp.add(("blk", block))

    def on_acquire(self, node_id, lock_id):
        if self._s.fp is not None:
            self._s.fp.add(("lock", lock_id))

    def on_release(self, node_id, lock_id):
        if self._s.fp is not None:
            self._s.fp.add(("lock", lock_id))

    def on_barrier_enter(self, node_id, barrier_id, episode):
        if self._s.fp is not None:
            self._s.fp.add(("bar", barrier_id))

    def on_barrier_exit(self, node_id, barrier_id, episode):
        if self._s.fp is not None:
            self._s.fp.add(("bar", barrier_id))

    def on_sync_applied(self, node_id, payload):
        fp = self._s.fp
        if fp is None:
            return
        for first, count, _, _ in (payload or {}).get("notices") or ():
            fp.update(("blk", b) for b in range(first, first + count))


class ControlledScheduler(SchedulerPolicy):
    """Scheduler policy that records, constrains and replays schedules."""

    def __init__(
        self,
        machine,
        forced: Sequence[int] = (),
        max_steps: int = 20_000,
        initial_sleep: Optional[Dict[int, FrozenSet[tuple]]] = None,
        sleep_from: int = 0,
        recorded: Sequence[Step] = (),
    ):
        self.machine = machine
        self.engine = machine.engine
        self.blockspace = machine.blockspace
        self.forced = list(forced)
        #: Steps an earlier execution recorded for a prefix of
        #: ``forced``: replayed steps reuse them instead of rebuilding
        #: label and footprint, once the enabled set is checked equal.
        self.recorded = recorded
        self.max_steps = max_steps
        #: sleep set (seq -> footprint): events whose subtrees an
        #: earlier exploration already covered.  ``initial_sleep`` is
        #: the set at entry to step index ``sleep_from``; from there it
        #: evolves by the wake rule (a dependent step wakes a sleeper).
        #: The free-running continuation prefers non-slept events, and
        #: :attr:`sleep_log` records the set at entry to each step for
        #: the explorer's backtracking bookkeeping.
        self.sleep: Dict[int, FrozenSet[tuple]] = dict(initial_sleep or {})
        self.sleep_from = sleep_from
        self.sleep_log: List[Optional[Dict[int, FrozenSet[tuple]]]] = []
        #: the completed schedule so far
        self.trace: List[Step] = []
        #: event seq -> seq of the event whose dispatch created it
        self.parent: Dict[int, int] = {}
        #: footprint of the currently executing event (None when idle)
        self.fp: Optional[set] = None
        #: per-node block set of the node's most recent region op (see
        #: _FootprintHooks.on_region)
        self.proc_blocks: Dict[int, FrozenSet[tuple]] = {}
        self._pending: Optional[Step] = None
        self._pre_seq = 0
        #: event seq -> :meth:`_classify` result (a seq names one
        #: entry for the whole execution)
        self._kinds: Dict[int, tuple] = {}
        machine.add_hooks(_FootprintHooks(self))
        machine.engine.set_policy(self)

    # ------------------------------------------------------------------
    # event classification
    # ------------------------------------------------------------------
    def _classify(self, entry):
        """Classify a ready entry; memoised under its seq.

        Returns ``(kind, detail, lane, size)``: ``('deliver', msg)``,
        ``('dispatch', (node, msg))``, ``('process', proc)`` or
        ``('other', None)``, then the FIFO lane the event waits in and
        its size there (see :meth:`enabled_events`).
        """
        fn = entry[3]
        owner = getattr(fn, "__self__", None)
        out = "other", None, None, 0
        if owner is self.machine:
            name = fn.__name__
            if name == "_deliver":
                m = entry[4][0]
                # local deliveries are FIFO unconditionally: size 0
                size = 0 if m.src == m.dst else m.size_bytes
                out = "deliver", m, ("link", m.src, m.dst), size
            elif name == "_dispatch":
                out = "dispatch", entry[4], ("cpu", entry[4][0].id), 0
        elif isinstance(owner, Process):
            out = "process", owner, None, 0
        self._kinds[entry[1]] = out
        return out

    @staticmethod
    def _rank_of(proc: Process) -> Optional[int]:
        name = proc.name
        if name.startswith("rank"):
            try:
                return int(name[4:])
            except ValueError:
                return None
        return None

    def _base_resources(self, kind, detail) -> set:
        if kind == "deliver":
            # Delivery is pure plumbing: it only decides the order in
            # which handlers at the destination get queued (handlers
            # themselves FIFO behind it), so two deliveries to the same
            # node race with each other and with nothing else.  The
            # ("nin", dst) namespace is disjoint from ("node", dst) on
            # purpose.
            return {("nin", detail.dst)}
        if kind == "dispatch":
            node, msg = detail
            out = {("node", node.id)}
            if msg.mtype.startswith("lock_"):
                out.add(("lock", msg.block))
            elif msg.mtype.startswith("barrier_"):
                out.add(("bar", msg.block))
            elif msg.block >= 0:
                out.add(("blk", msg.block))
            return out
        if kind == "process":
            rank = self._rank_of(detail)
            if rank is None:
                return {GLOBAL}
            return {("node", rank)} | set(self.proc_blocks.get(rank, ()))
        return {GLOBAL}

    def _label(self, kind, detail, entry) -> str:
        if kind == "deliver":
            m = detail
            return (
                f"wire  {m.mtype:<14} {m.src}->{m.dst} "
                f"block={m.block} {m.size_bytes}B"
            )
        if kind == "dispatch":
            node, m = detail
            return (
                f"node{node.id} {m.mtype:<14} from {m.src} block={m.block}"
            )
        if kind == "process":
            return f"{detail.name}: resume"
        return f"event {getattr(entry[3], '__name__', repr(entry[3]))}"

    # ------------------------------------------------------------------
    # enabled-set computation
    # ------------------------------------------------------------------
    def enabled_events(self, ready):
        """Filter the ready set down to wire-feasible choices.

        An event waits behind an earlier (lower-seq) event of its lane
        unless it is strictly smaller: a message overtakes an earlier
        one on the same link only by being strictly smaller, while
        local deliveries and a node's handler dispatches carry size 0
        and so stay FIFO.
        """
        if len(ready) < 2:
            return ready
        kinds = self._kinds
        lanes: Dict[tuple, list] = {}
        for e in ready:
            kind = kinds.get(e[1]) or self._classify(e)
            lane = kind[2]
            if lane is not None:
                lanes.setdefault(lane, []).append((e[1], kind[3]))
        blocked = set()
        for pend in lanes.values():
            if len(pend) < 2:
                continue
            pend.sort()
            for i in range(1, len(pend)):
                seq_i, size_i = pend[i]
                for seq_j, size_j in pend[:i]:
                    if size_j <= size_i:
                        blocked.add(seq_i)
                        break
        if not blocked:
            return ready
        return [e for e in ready if e[1] not in blocked]

    # ------------------------------------------------------------------
    # SchedulerPolicy interface
    # ------------------------------------------------------------------
    def choose(self, ready):
        enabled = self.enabled_events(ready)
        seqs = tuple([e[1] for e in enabled])
        depth = len(self.trace)
        self._pre_seq = self.engine.next_seq
        if depth < len(self.forced):
            want = self.forced[depth]
            if want not in seqs:
                raise ReplayDivergence(
                    f"forced schedule wants seq {want} at step {depth}, "
                    f"enabled: {list(seqs)}"
                )
            entry = enabled[seqs.index(want)]
            if depth < len(self.recorded):
                step = self.recorded[depth]
                if step.seq != want or step.enabled != seqs:
                    raise ReplayDivergence(
                        f"step {depth} replays seq {want} with enabled "
                        f"{list(seqs)}; recorded seq {step.seq} with "
                        f"enabled {list(step.enabled)}"
                    )
                self._pending = step
                return entry
        else:
            entry = enabled[0]
            if self.sleep:
                for e in enabled:
                    if e[1] not in self.sleep:
                        entry = e
                        break
        kind, detail = (self._kinds.get(entry[1]) or self._classify(entry))[:2]
        self.fp = self._base_resources(kind, detail)
        self._pending = Step(
            seq=entry[1],
            time=entry[0],
            label=self._label(kind, detail, entry),
            enabled=seqs,
            parent=self.parent.get(entry[1]),
        )
        return entry

    def executed(self, entry):
        chosen = entry[1]
        for s in range(self._pre_seq, self.engine.next_seq):
            self.parent[s] = chosen
        step = self._pending
        if self.fp is not None:
            step.resources = frozenset(self.fp)
            self.fp = None
        self._pending = None
        k = len(self.trace)
        if k >= self.sleep_from:
            self.sleep_log.append(dict(self.sleep))
            if self.sleep:
                res = step.resources
                self.sleep = {
                    t: r
                    for t, r in self.sleep.items()
                    if t != step.seq and not conflict(r, res)
                }
        else:
            self.sleep_log.append(None)
        self.trace.append(step)
        if len(self.trace) >= self.max_steps:
            raise TraceBudgetExceeded(
                f"schedule exceeded {self.max_steps} steps"
            )


def format_trace(trace: Sequence[Step], highlight: int = -1) -> str:
    """Render a schedule as a readable event listing.

    One line per step: index, simulated timestamp, the event label, and
    a ``*`` marker on steps where more than one event was enabled (the
    actual scheduling decisions -- everything else was forced).  Pass
    ``highlight`` to mark one step with ``>``.
    """
    lines = []
    for k, st in enumerate(trace):
        mark = ">" if k == highlight else (
            "*" if len(st.enabled) > 1 else " "
        )
        lines.append(
            f"{mark}[{k:4d}] t={st.time:10.2f}us seq={st.seq:<6d} {st.label}"
        )
    return "\n".join(lines)
