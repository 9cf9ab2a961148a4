"""repro.mc: the incremental DPOR analysis and recorded-step replay.

The explorer analyses only the steps each execution adds and replays
the shared prefix from the previous execution's recorded steps.  The
oracle here is the from-scratch analysis (every execution re-analyses
its whole trace, every replayed step is rebuilt), kept only in this
file; both must explore exactly the same schedules.
"""

import dataclasses
import random

import pytest

from repro.mc import LITMUS, Explorer, ReplayDivergence, litmus_names, replay
from repro.mc.explore import _Frame, _HappensBefore
from repro.mc.scheduler import GLOBAL, Step, conflict


def _add_backtracks_from_scratch(self, trace, frames, parent):
    """Flanagan-Godefroid style backtrack-point computation.

    ``i`` races with ``j`` when their footprints conflict, ``i`` is
    not a creation ancestor of ``j``, and no intermediate step is
    happens-before ordered between them (the race is *immediate*;
    non-adjacent dependent pairs are reached transitively by later
    re-analyses).  For each race, the alternative scheduled at
    ``i`` is ``j``'s earliest pending ancestor at that point.
    """
    n = len(trace)
    index_of = {st.seq: k for k, st in enumerate(trace)}
    # hb[j]: bitmask of trace indices that happen-before j through
    # dependence edges and event-creation edges, transitively.
    hb = [0] * n
    for j in range(n):
        m = 0
        pj = trace[j].parent
        if pj is not None and pj in index_of:
            pi = index_of[pj]
            m |= hb[pi] | (1 << pi)
        for i in range(j):
            if not (m >> i) & 1 and conflict(
                trace[i].resources, trace[j].resources
            ):
                m |= hb[i] | (1 << i)
        hb[j] = m

    # creation-ancestor chains (seq -> seq)
    def ancestors(seq: int):
        chain = []
        p = parent.get(seq)
        while p is not None:
            chain.append(p)
            p = parent.get(p)
        return chain

    for j in range(n):
        res_j = trace[j].resources
        anc_j = set(ancestors(trace[j].seq))
        for i in range(j - 1, -1, -1):
            if trace[i].seq in anc_j:
                continue
            if not conflict(trace[i].resources, res_j):
                continue
            # immediate race? no k with i ->hb k ->hb j strictly
            # between them
            immediate = True
            for k in range(i + 1, j):
                if (hb[k] >> i) & 1 and (hb[j] >> k) & 1:
                    immediate = False
                    break
            if not immediate:
                continue
            frame = frames[i]
            enabled = set(frame.enabled)
            # schedule j itself, or its earliest ancestor that was
            # already pending at point i
            cand = None
            for seq in [trace[j].seq] + ancestors(trace[j].seq):
                if seq in enabled:
                    cand = seq
                    break
            if cand is None:
                # conservative fallback: branch on everything
                frame.todo.update(enabled)
            elif cand != frame.chosen:
                frame.todo.add(cand)


class FromScratchExplorer(Explorer):
    """Re-analyses every whole trace and rebuilds every replayed step."""

    def _execute(self, prefix, sleep=None, sleep_from=0, recorded=()):
        return super()._execute(prefix, sleep, sleep_from)

    def _add_backtracks(self, trace, frames, parent, start, order):
        _add_backtracks_from_scratch(self, trace, frames, parent)


# ---------------------------------------------------------------------------
# the analysis alone, on random traces
# ---------------------------------------------------------------------------

_RESOURCES = [("blk", 0), ("blk", 1), ("node", 0), ("node", 1), ("lock", 0)]


def _random_trace(rng, prefix, n):
    """``prefix`` plus fresh steps up to ``n``: random footprints (some
    global), parents among earlier steps, pending alternatives among
    later steps.  Seqs are unique within the trace only, as in replays
    that share a prefix."""
    used = {st.seq for st in prefix}
    seqs = rng.sample([q for q in range(3 * n) if q not in used], n - len(prefix))
    trace = list(prefix)
    for k, seq in enumerate(seqs, start=len(prefix)):
        if rng.random() < 0.05:
            res = frozenset([GLOBAL])
        else:
            res = frozenset(rng.sample(_RESOURCES, rng.randint(1, 2)))
        later = seqs[k - len(prefix) + 1:]
        alts = rng.sample(later, min(len(later), rng.randint(0, 3)))
        trace.append(Step(
            seq=seq, time=0.0, label="", resources=res,
            enabled=tuple(sorted([seq] + alts)),
            parent=rng.choice([None] + [st.seq for st in trace]),
        ))
    return trace


@pytest.mark.parametrize("seed", range(40))
def test_incremental_analysis_matches_from_scratch_on_random_traces(seed):
    rng = random.Random(seed)
    ex = Explorer(LITMUS["mp"], "sc")
    order = _HappensBefore()
    trace = _random_trace(rng, [], 30)
    incremental = [_Frame(st.enabled, st.seq, {}) for st in trace]
    scratch = [_Frame(st.enabled, st.seq, {}) for st in trace]
    start = 0
    for _ in range(6):
        parent = {st.seq: st.parent for st in trace if st.parent is not None}
        ex._add_backtracks(trace, incremental, parent, start, order)
        _add_backtracks_from_scratch(ex, trace, scratch, parent)
        assert [f.todo for f in incremental] == [f.todo for f in scratch]
        # backtrack: a new choice at ``start``, a fresh suffix after it
        start = rng.randrange(len(trace))
        trace = _random_trace(rng, trace[:start], rng.randint(start + 1, 40))
        for frames in (incremental, scratch):
            del frames[start + 1:]
            frames[start].chosen = trace[start].seq
            frames.extend(
                _Frame(st.enabled, st.seq, {}) for st in trace[start + 1:]
            )


def _same_exploration(litmus, protocol, **kw):
    """Run both explorers on one cell; return the oracle's result."""
    want = FromScratchExplorer(LITMUS[litmus], protocol, 64, **kw).run()
    got = Explorer(LITMUS[litmus], protocol, 64, **kw).run()
    # to_dict() includes a counterexample's schedule; compare its text too
    assert got.to_dict() == want.to_dict()
    texts = [r.counterexample and r.counterexample.trace_text
             for r in (got, want)]
    assert texts[0] == texts[1]
    return want


# sc and dc are here because on lock-handoff they are the cells where
# reporting a non-immediate race changes the first schedules explored.
@pytest.mark.parametrize(
    "protocol", ["swlrc", "hlrc", "tardis", "swlrc-broken", "sc", "dc"]
)
@pytest.mark.parametrize("litmus", litmus_names())
def test_incremental_dpor_matches_from_scratch(litmus, protocol):
    _same_exploration(litmus, protocol, dpor=True, max_schedules=100)


def test_exhaustive_cell_matches_from_scratch():
    assert _same_exploration("sb", "hlrc", dpor=True,
                             max_schedules=2000).complete


def test_naive_dfs_matches_from_scratch():
    _same_exploration("sb", "hlrc", dpor=False, max_schedules=150)


# ---------------------------------------------------------------------------
# replaying recorded steps checks the whole enabled set
# ---------------------------------------------------------------------------

def _recorded_run(litmus="mp", protocol="swlrc"):
    trace, outcome, report, error = replay(LITMUS[litmus], protocol, 64, [])
    assert error is None
    return trace


def test_recorded_steps_replay_to_the_same_trace():
    trace = _recorded_run()
    ex = Explorer(LITMUS["mp"], "swlrc", 64)
    sched, *_ = ex._execute([st.seq for st in trace], recorded=trace)
    assert [dataclasses.astuple(st) for st in sched.trace] == \
           [dataclasses.astuple(st) for st in trace]


@pytest.mark.parametrize("tamper", ["extra", "missing"])
def test_tampered_enabled_set_raises_replay_divergence(tamper):
    trace = _recorded_run()
    k = next(k for k, st in enumerate(trace) if len(st.enabled) > 1)
    st = trace[k]
    if tamper == "extra":
        enabled = st.enabled + (999_999,)
    else:
        other = next(s for s in st.enabled if s != st.seq)
        enabled = tuple(s for s in st.enabled if s != other)
    # the forced seq itself stays enabled: only the set check can fire
    tampered = list(trace)
    tampered[k] = dataclasses.replace(st, enabled=enabled)
    ex = Explorer(LITMUS["mp"], "swlrc", 64)
    with pytest.raises(ReplayDivergence, match=f"step {k} "):
        ex._execute([s.seq for s in trace], recorded=tampered)


def test_interrupt_during_replay_raises_the_callers_exception():
    from repro.mc.scheduler import ControlledScheduler
    from repro.runtime.program import run_program

    class Stop(Exception):
        pass

    trace = _recorded_run()
    inst = LITMUS["mp"].instantiate("swlrc", granularity=64)
    ControlledScheduler(
        inst.machine, forced=[st.seq for st in trace], recorded=trace
    )
    inst.machine.engine.interrupt(Stop())
    with pytest.raises(Stop):
        run_program(inst.machine, inst.program, nprocs=inst.nprocs,
                    **inst.kwargs)
