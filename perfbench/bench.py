"""Workloads, timed and traced passes, fingerprint checks and metrics.

A *workload* is a fixed list of operations.  An operation is one
simulated cell (application x protocol x granularity x node count,
default scale, polling notification) or one exhaustive DPOR
exploration of a litmus test.  A *pass* runs every operation of a
workload once, in an order drawn from the seed, and checks each
against its pinned fingerprint (``fingerprints.json``):

* a cell's fingerprint is the sha256 prefix of its final ``Stats``
  dump -- the recipe of ``repro.perf.micros._stats_sha``;
* an exploration's fingerprint is its schedule count, transition
  count, outcome multiset and verdict.

An operation fails if it raises, deadlocks, or its fingerprint differs
from the pinned one.  See README.md for why each workload exists and
which metric each layer figure should move.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from tracer import Tracer, instrument_machine, traced_program

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")

#: length of one batch of set-up-only repetitions.  A timed run makes
#: one batch before each pass and one after the last, so the samples
#: span the run instead of one short stretch of a shared host.
SETUP_BATCH_SECONDS = 0.3
#: host-speed probe: PROBE_REPS runs of :func:`probe_once`, median taken,
#: at least every PROBE_EVERY_S seconds of operations.  End-to-end times
#: are rescaled to a host on which the probe takes PROBE_REF_S.
PROBE_REPS = 3
PROBE_EVERY_S = 1.0
PROBE_REF_S = 0.015
#: timed passes per run: at least MIN_PASSES, so every operation's
#: median has more than one sample; no pass starts once a run has
#: measured MAX_MEASURE_SECONDS (a run must end well inside 3 minutes)
MIN_PASSES = 2
MAX_MEASURE_SECONDS = 120.0


# ----------------------------------------------------------------------
# operations and workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Cell:
    """One simulated run of an application on a configured machine."""

    app: str
    protocol: str
    granularity: int
    nprocs: int = 16
    #: the workload is invalid unless every rank computes
    all_ranks_busy: bool = False

    @property
    def key(self) -> str:
        return f"{self.app}/{self.protocol}/{self.granularity}/{self.nprocs}"


@dataclass(frozen=True)
class Exploration:
    """Exhaustive DPOR model checking of one litmus/protocol pair."""

    litmus: str
    protocol: str
    granularity: int = 64

    @property
    def key(self) -> str:
        return f"mc:{self.litmus}/{self.protocol}/{self.granularity}"


Op = Union[Cell, Exploration]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Tuple[Op, ...]


APPS = (
    "lu", "fft", "ocean-rowwise", "ocean-original", "water-nsquared",
    "water-spatial", "volrend-original", "volrend-rowwise", "raytrace",
    "barnes-original", "barnes-parttree", "barnes-spatial",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "lrc-g64",
            "relaxed protocols at 64-byte blocks: write-notice application, "
            "per-block tag invalidation, small diffs and lock-heavy sync",
            (Cell("ocean-original", "swlrc", 64), Cell("barnes-original", "hlrc", 64)),
        ),
        Workload(
            "sweep-g4096",
            "the figure-style sweep of all 12 apps x sc/swlrc/hlrc/tardis at "
            "4096 bytes: short cells weight set-up, dispatch and send",
            tuple(
                Cell(app, proto, 4096)
                for app in APPS
                for proto in ("sc", "swlrc", "hlrc", "tardis")
            ),
        ),
        Workload(
            "scale-n128",
            "128 nodes with every rank busy: sparse clocks, sharded copysets "
            "and the tiered fabric run only above 64 nodes",
            (
                Cell("lu", "tardis", 1024, 128, all_ranks_busy=True),
                Cell("lu", "hlrc", 1024, 128, all_ranks_busy=True),
                Cell("ocean-rowwise", "sc", 1024, 128, all_ranks_busy=True),
            ),
        ),
        Workload(
            "mc-litmus",
            "exhaustive DPOR model checking: policy dispatch, one fresh "
            "machine and the checkers per schedule",
            (
                Exploration("mp", "swlrc"),
                Exploration("mp", "tardis"),
                Exploration("sb", "hlrc"),
                Exploration("lb", "tardis"),
            ),
        ),
    )
}


def ordered(workload: Workload, seed: int) -> List[Op]:
    """The workload's operations in the order the seed draws."""
    ops = list(workload.ops)
    random.Random(seed).shuffle(ops)
    return ops


def load_fingerprints(path: Path = FINGERPRINTS) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def stats_sha(stats) -> str:
    """sha256 prefix of a run's final counters (``_stats_sha`` recipe)."""
    blob = json.dumps(stats.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def exploration_fingerprint(res) -> dict:
    fp = {
        "schedules": res.schedules,
        "transitions": res.transitions,
        "outcomes": sorted([list(k), v] for k, v in res.outcomes.items()),
        "ok": res.ok,
        "complete": res.complete,
    }
    return json.loads(json.dumps(fp))


# ----------------------------------------------------------------------
# running one operation
# ----------------------------------------------------------------------
@dataclass
class OpResult:
    key: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    #: simulated events (cells) or transitions (explorations)
    events: int = 0
    #: complete simulated executions: 1 per cell, schedules per exploration
    executions: int = 0
    fingerprint: object = None
    error: Optional[str] = None
    #: set by :func:`check`
    ok: bool = False
    #: host-speed probe time around the operation (see :func:`probe`)
    probe_s: float = PROBE_REF_S

    def scaled(self, seconds: float) -> float:
        """``seconds`` rescaled to the reference host speed."""
        return seconds * PROBE_REF_S / self.probe_s


class _Sim:
    """The program entry points one pass calls; traced or plain."""

    def __init__(self, tracer: Optional[Tracer] = None, layer=None):
        from repro.apps import make_app
        from repro.cluster.config import MachineParams, NotificationMechanism
        from repro.cluster.machine import Machine
        from repro.mc.explore import Explorer
        from repro.mc.litmus import get_litmus
        from repro.runtime.program import run_program

        self.make_app = make_app
        self.params = lambda n, g: MachineParams(
            n_nodes=n, granularity=g, mechanism=NotificationMechanism.POLLING
        )
        self.Machine = Machine
        self.Explorer = Explorer
        self.get_litmus = get_litmus
        self.run_program = run_program
        self.tracer = tracer
        #: LayerCounts of the traced pass
        self.layer = layer
        self.regions = None

    # machine construction: the seam every traced machine goes through
    def build(self, params, **kwargs):
        tracer = self.tracer
        if tracer is None:
            return self.Machine(params, **kwargs)
        with tracer.span("cluster.build"):
            machine = self.Machine(params, **kwargs)
        instrument_machine(tracer, machine, self.layer.add_run, self.regions)
        return machine

    def setup_cell(self, cell: Cell):
        app = self.make_app(cell.app, scale="default")
        machine = self.build(
            self.params(cell.nprocs, cell.granularity),
            protocol=cell.protocol,
            poll_dilation=app.poll_dilation,
        )
        if self.tracer is None:
            app.setup(machine)
        else:
            with self.tracer.span("apps.setup"):
                app.setup(machine)
        return app, machine

    def program(self, program: Callable) -> Callable:
        """The rank program, its generator resumes traced if tracing."""
        tracer = self.tracer
        if tracer is None:
            return program
        return lambda dsm, rank, n, **kw: tracer.drive(
            "apps.program", program(dsm, rank, n, **kw)
        )

    def run_cell(self, cell: Cell) -> Tuple[OpResult, object]:
        res = OpResult(cell.key, executions=1)
        t0 = perf_counter()
        app, machine = self.setup_cell(cell)
        t1 = perf_counter()
        self.run_program(
            machine,
            self.program(app.program),
            nprocs=cell.nprocs,
            sequential_time_us=app.sequential_time_us(),
        )
        t2 = perf_counter()
        res.setup_s, res.wall_s = t1 - t0, t2 - t0
        res.events = machine.engine.events_run
        res.fingerprint = stats_sha(machine.stats)
        return res, machine

    def setup_exploration(self, ex: Exploration):
        litmus = self.get_litmus(ex.litmus)
        if self.tracer is not None:
            litmus = _TracedLitmus(litmus, self.tracer, self.program)
        return self.Explorer(litmus, ex.protocol, ex.granularity)

    def run_exploration(self, ex: Exploration) -> OpResult:
        res = OpResult(ex.key)
        t0 = perf_counter()
        explorer = self.setup_exploration(ex)
        t1 = perf_counter()
        if self.tracer is None:
            out = explorer.run()
        else:
            with self.tracer.span("mc.explorer"):
                out = explorer.run()
        t2 = perf_counter()
        res.setup_s, res.wall_s = t1 - t0, t2 - t0
        res.events, res.executions = out.transitions, out.schedules
        res.fingerprint = exploration_fingerprint(out)
        if self.layer is not None:
            self.layer.schedules += out.schedules
            self.layer.transitions += out.transitions
        return res

    def setup_only(self, op: Op) -> float:
        """Host seconds to build one operation's inputs (then drop them)."""
        t0 = perf_counter()
        if isinstance(op, Cell):
            self.setup_cell(op)
        else:
            self.setup_exploration(op)
        return perf_counter() - t0


class _TracedLitmus:
    """A litmus whose ``instantiate`` is a span and whose program is traced."""

    def __init__(self, litmus, tracer: Tracer, program: Callable):
        self._litmus = litmus
        self._tracer = tracer
        self._program = program

    def __getattr__(self, name):
        return getattr(self._litmus, name)

    def instantiate(self, *args, **kwargs):
        import dataclasses

        with self._tracer.span("mc.instantiate"):
            inst = self._litmus.instantiate(*args, **kwargs)
        return dataclasses.replace(inst, program=self._program(inst.program))


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    ops: List[OpResult] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.ops)

    @property
    def setup_s(self) -> float:
        return sum(o.setup_s for o in self.ops)

    @property
    def scaled_wall_s(self) -> float:
        return sum(o.scaled(o.wall_s) for o in self.ops)

    @property
    def events(self) -> int:
        return sum(o.events for o in self.ops)

    @property
    def executions(self) -> int:
        return sum(o.executions for o in self.ops)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.ops)

    def result(self, key: str) -> OpResult:
        return next(o for o in self.ops if o.key == key)


def check(res: OpResult, op: Op, fingerprints: Dict[str, object], machine=None) -> None:
    """Judge one operation against its pinned fingerprint."""
    if res.error is None:
        pinned = fingerprints.get(res.key)
        if pinned is None:
            res.error = "no pinned fingerprint"
        elif res.fingerprint != pinned:
            res.error = f"fingerprint {res.fingerprint} != pinned {pinned}"
        elif isinstance(op, Cell) and op.all_ranks_busy and machine is not None:
            idle = [n.node_id for n in machine.stats.nodes if n.compute_us <= 0]
            if idle:
                res.error = f"ranks {idle} never compute: workload invalid"
    res.ok = res.error is None


def run_op(sim: _Sim, op: Op, fingerprints: Dict[str, object]) -> OpResult:
    machine = None
    try:
        if isinstance(op, Cell):
            res, machine = sim.run_cell(op)
        else:
            res = sim.run_exploration(op)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        res = OpResult(op.key, error=f"{type(exc).__name__}: {exc}")
    check(res, op, fingerprints, machine)
    if sim.layer is not None and machine is not None:
        sim.layer.add_metadata(machine)
    return res


def probe_once(n: int = 100_000) -> float:
    """Host seconds for a fixed loop of pure-Python arithmetic.

    It lives in the benchmark's own code and allocates nothing, so no
    change to the program, its heap or its garbage can move it.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
    return perf_counter() - t0


def probe() -> float:
    """The host's current speed, as the median time of the probe."""
    return statistics.median(probe_once() for _ in range(PROBE_REPS))


def run_pass(ops: List[Op], fingerprints: Dict[str, object], sim: Optional[_Sim] = None) -> PassResult:
    """Run every operation once.

    Garbage is collected before each operation and the host-speed probe
    runs between operations, both outside the timed regions.  Each
    operation gets the mean of the two probes that bracket it.
    """
    sim = sim or _Sim()
    out = PassResult()
    gc.collect()
    last_probe, since = probe(), perf_counter()
    pending: List[OpResult] = []
    for k, op in enumerate(ops):
        if sim.tracer is not None:
            sim.tracer.trace_id = k
            sim.tracer.trace_names[k] = op.key
        pending.append(run_op(sim, op, fingerprints))
        gc.collect()
        if k == len(ops) - 1 or perf_counter() - since >= PROBE_EVERY_S:
            now_probe, since = probe(), perf_counter()
            for res in pending:
                res.probe_s = (last_probe + now_probe) / 2
            out.ops.extend(pending)
            pending, last_probe = [], now_probe
    return out


def add_setup_samples(ops: List[Op], samples: Dict[str, List[float]]) -> None:
    """Set-up-only repetitions for SETUP_BATCH_SECONDS (at least one),
    appended per operation key, rescaled to the reference host speed.
    Garbage is collected before each set-up, as in a pass."""
    sim = _Sim()
    start = perf_counter()
    while True:
        gc.collect()
        before = probe()
        times = []
        for op in ops:
            gc.collect()
            times.append(sim.setup_only(op))
        gc.collect()
        speed = (before + probe()) / 2
        for op, t in zip(ops, times):
            samples.setdefault(op.key, []).append(t * PROBE_REF_S / speed)
        if perf_counter() - start >= SETUP_BATCH_SECONDS:
            return


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: name -> unit, in report order
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "schedules_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.dispatch_self_s": "s",
    "sim.ns_per_event": "ns",
    "net.messages": "count",
    "net.bytes": "B",
    "net.send_self_s": "s",
    "cluster.build_s": "s",
    "cluster.deliver_self_s": "s",
    "core.on_message_calls": "count",
    "core.on_message_self_s": "s",
    "core.fault_self_s": "s",
    "core.apply_sync_self_s": "s",
    "core.sync_payload_self_s": "s",
    "core.release_prepare_self_s": "s",
    "core.notices_applied": "count",
    "core.invalidations": "count",
    "core.read_faults": "count",
    "core.write_faults": "count",
    "core.notice_yield": "ratio",
    "memory.tag_invalidate_calls": "count",
    "memory.metadata_bytes_per_block": "B/block",
    "diff.create_self_s": "s",
    "diff.apply_self_s": "s",
    "diff.created": "count",
    "diff.bytes": "B",
    "simcore.diff_runs_calls": "count",
    "simcore.diff_runs_self_s": "s",
    "timestamps.merge_calls": "count",
    "timestamps.merge_self_s": "s",
    "runtime.region_ops": "count",
    "runtime.access_self_s": "s",
    "runtime.block_hit_ratio": "ratio",
    "sync.on_message_self_s": "s",
    "sync.lock_acquires": "count",
    "sync.barriers": "count",
    "apps.setup_s": "s",
    "apps.program_self_s": "s",
    "mc.schedules": "count",
    "mc.transitions": "count",
    "mc.instantiate_s": "s",
    "mc.choose_self_s": "s",
    "mc.explorer_self_s": "s",
    "check.install_s": "s",
    "check.hooks_self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}

#: per-layer metric -> the span whose self time it reports
SELF_TIMES = {
    "sim.dispatch_self_s": "sim.dispatch",
    "net.send_self_s": "net.send",
    "cluster.build_s": "cluster.build",
    "cluster.deliver_self_s": "cluster.deliver",
    "core.on_message_self_s": "core.on_message",
    "core.fault_self_s": "core.fault",
    "core.apply_sync_self_s": "core.apply_sync",
    "core.sync_payload_self_s": "core.sync_payload",
    "core.release_prepare_self_s": "core.release_prepare",
    "diff.create_self_s": "diff.create",
    "diff.apply_self_s": "diff.apply",
    "simcore.diff_runs_self_s": "simcore.diff_runs",
    "timestamps.merge_self_s": "timestamps.merge",
    "runtime.access_self_s": "runtime.access",
    "sync.on_message_self_s": "sync.on_message",
    "apps.setup_s": "apps.setup",
    "apps.program_self_s": "apps.program",
    "mc.instantiate_s": "mc.instantiate",
    "mc.choose_self_s": "mc.choose",
    "mc.explorer_self_s": "mc.explorer",
    "check.install_s": "check.install",
    "check.hooks_self_s": "check.hooks",
}

#: per-layer metric -> the span whose call count it reports
CALLS = {
    "core.on_message_calls": "core.on_message",
    "simcore.diff_runs_calls": "simcore.diff_runs",
    "timestamps.merge_calls": "timestamps.merge",
}


@dataclass
class LayerCounts:
    """Exact work counts read from public state during the traced pass."""

    events: int = 0
    messages: int = 0
    bytes: int = 0
    notices_applied: int = 0
    invalidations: int = 0
    read_faults: int = 0
    write_faults: int = 0
    diffs: int = 0
    diff_bytes: int = 0
    lock_acquires: int = 0
    barriers: int = 0
    schedules: int = 0
    transitions: int = 0
    meta_bytes: int = 0
    meta_blocks: int = 0

    def add_run(self, machine) -> None:
        """Called once per finished ``engine.run`` (one per machine)."""
        st = machine.stats
        self.events += machine.engine.events_run
        self.messages += st.total_messages
        self.bytes += st.total_traffic_bytes
        self.notices_applied += st.write_notices_applied
        self.invalidations += st.invalidations
        self.read_faults += st.read_faults
        self.write_faults += st.write_faults
        self.diffs += st.diffs_created
        self.diff_bytes += st.diff_bytes
        self.lock_acquires += st.total_lock_acquires
        self.barriers += sum(n.barriers for n in st.nodes)

    def add_metadata(self, machine) -> None:
        """Coherence metadata a finished cell left behind (cells only)."""
        from repro.stats.counters import protocol_metadata

        md = protocol_metadata(machine)
        self.meta_bytes += md.meta_bytes
        self.meta_blocks += md.blocks


def end_to_end_metrics(
    passes: List[PassResult], setups: Dict[str, List[float]], peak_rss_mb: float
) -> Dict[str, float]:
    """The median pass, composed operation by operation.

    Every time is first rescaled to the reference host speed by the
    probe next to it.  Each operation's time is its median over the
    run's passes (its set-up, the median over the passes and the
    set-up-only repetitions); the workload's figures sum them.  A slow
    stretch of the host then has to hit the same operation in most
    passes to move the result.
    """
    wall = setup = 0.0
    for op in passes[0].ops:
        results = [p.result(op.key) for p in passes]
        wall += statistics.median(r.scaled(r.wall_s) for r in results)
        setup += statistics.median(
            setups.get(op.key, []) + [r.scaled(r.setup_s) for r in results]
        )
    first = passes[0]
    return {
        "wall_s": wall,
        "setup_s": setup,
        "events_per_s": first.events / (wall - setup),
        "schedules_per_s": first.executions / wall,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(
    tracer: Tracer, layer: LayerCounts, regions, traced: PassResult, untraced: PassResult
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = tracer.self_s.get(span, 0.0)
    for metric, span in CALLS.items():
        out[metric] = tracer.calls.get(span, 0)
    events = layer.events
    out.update({
        "sim.events": events,
        "sim.ns_per_event": out["sim.dispatch_self_s"] / events * 1e9 if events else 0.0,
        "net.messages": layer.messages,
        "net.bytes": layer.bytes,
        "core.notices_applied": layer.notices_applied,
        "core.invalidations": layer.invalidations,
        "core.read_faults": layer.read_faults,
        "core.write_faults": layer.write_faults,
        "core.notice_yield": (
            layer.invalidations / layer.notices_applied if layer.notices_applied else 0.0
        ),
        "memory.tag_invalidate_calls": tracer.counts.get("memory.tag_invalidate", 0),
        "memory.metadata_bytes_per_block": (
            layer.meta_bytes / layer.meta_blocks if layer.meta_blocks else 0.0
        ),
        "diff.created": layer.diffs,
        "diff.bytes": layer.diff_bytes,
        "runtime.region_ops": tracer.counts.get("runtime.region_ops", 0),
        "runtime.block_hit_ratio": (
            (regions.reached - regions.faulted) / regions.reached if regions.reached else 0.0
        ),
        "sync.lock_acquires": layer.lock_acquires,
        "sync.barriers": layer.barriers,
        "mc.schedules": layer.schedules,
        "mc.transitions": layer.transitions,
        # rescaled, so a host-speed change between the passes cancels
        "trace.overhead_frac": traced.scaled_wall_s / untraced.scaled_wall_s - 1.0,
        "trace.unattributed_s": traced.wall_s - tracer.total_self_s(),
    })
    return {name: out[name] for name in PER_LAYER}


def traced_pass(ops: List[Op], fingerprints: Dict[str, object]) -> Tuple[PassResult, Tracer, LayerCounts, object]:
    """One pass with every layer boundary traced."""
    tracer = Tracer()
    layer = LayerCounts()
    sim = _Sim(tracer, layer)
    with traced_program(tracer, sim.build) as regions:
        sim.regions = regions
        result = run_pass(ops, fingerprints, sim)
    return result, tracer, layer, regions
