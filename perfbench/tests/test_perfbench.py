"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Each workload is reduced to one cheap operation; the full workloads
take minutes.
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: one cheap operation per workload
REDUCED = {
    "lrc-g64": "barnes-original/hlrc/64/16",
    "sweep-g4096": "volrend-rowwise/sc/4096/16",
    "scale-n128": "lu/tardis/1024/128",
    "mc-litmus": "mc:sb/hlrc/64",
}

#: per-layer metrics that must repeat exactly from run to run
EXACT_UNITS = {"count", "B", "B/block"}
EXACT_RATIOS = {"core.notice_yield", "runtime.block_hit_ratio"}


def reduced(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    return dataclasses.replace(
        w, ops=tuple(op for op in w.ops if op.key == REDUCED[name])
    )


def report(workload, trace: bool, tmp_path: Path, fingerprints=None):
    out = io.StringIO()
    result = run.run(workload, 1, 0.0, trace, fingerprints=fingerprints,
                     out=out, trace_dir=tmp_path)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_pass_prints_every_metric_with_its_unit(name, tmp_path):
    workload = reduced(name)
    assert len(workload.ops) == 1
    for trace, spec_key in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = report(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for metric, unit in expected.items():
            assert any(
                line.split()[:1] == [metric] and line.split()[2] == unit
                for line in lines
            ), metric
        assert any(line.startswith("failed_frac") for line in lines)
        head = json.loads(lines[0])["header"]
        assert {"python", "simcore_backend", "nproc", "commit", "seed"} <= set(head)
    assert (tmp_path / f"{name}-seed1.trace.json").exists()


@pytest.mark.parametrize("name", ["sweep-g4096", "mc-litmus"])
def test_tampered_fingerprint_fails_the_operation(name, tmp_path):
    workload = reduced(name)
    fingerprints = bench.load_fingerprints()
    key = workload.ops[0].key
    if isinstance(fingerprints[key], dict):
        fingerprints[key] = dict(fingerprints[key], schedules=1)
    else:
        fingerprints[key] = "0" * 16
    result, lines = report(workload, False, tmp_path, fingerprints)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    frac = next(line for line in lines if line.startswith("failed_frac"))
    assert float(frac.split()[1]) == 1.0


@pytest.mark.parametrize("name", ["scale-n128", "mc-litmus"])
def test_per_layer_counts_repeat_across_traced_passes(name):
    ops = list(reduced(name).ops)
    fingerprints = bench.load_fingerprints()
    counts = []
    for _ in range(2):
        result, tracer, layer, regions = bench.traced_pass(ops, fingerprints)
        # the traced pass reproduces the pinned fingerprints
        assert result.failed == 0
        metrics = bench.per_layer_metrics(tracer, layer, regions, result, result)
        counts.append({
            k: v for k, v in metrics.items()
            if bench.PER_LAYER[k] in EXACT_UNITS or k in EXACT_RATIOS
        })
    assert counts[0] == counts[1]
    assert counts[0]["sim.events"] > 0


def test_end_to_end_figures_compose_rescaled_per_operation_medians():
    ref = bench.PROBE_REF_S

    def op(key, wall, setup, probe, events=100):
        return bench.OpResult(key, wall_s=wall, setup_s=setup, events=events,
                              executions=1, ok=True, probe_s=probe)

    passes = [
        bench.PassResult([op("a", 2.0, 0.2, ref), op("b", 1.0, 0.1, ref)]),
        # a host twice as slow: rescaled to the same figures
        bench.PassResult([op("a", 4.0, 0.4, 2 * ref), op("b", 2.0, 0.2, 2 * ref)]),
        # one slow outlier per operation is outvoted by the median
        bench.PassResult([op("a", 9.0, 0.2, ref), op("b", 1.0, 0.9, ref)]),
    ]
    m = bench.end_to_end_metrics(passes, {"a": [0.2], "b": [0.1]}, 50.0)
    assert m["wall_s"] == pytest.approx(3.0)
    assert m["setup_s"] == pytest.approx(0.3)
    assert m["events_per_s"] == pytest.approx(200 / 2.7)
    assert m["schedules_per_s"] == pytest.approx(2 / 3.0)
    assert m["peak_rss_mb"] == 50.0


def test_tracing_is_undone_after_the_pass():
    from repro.core.timestamps import VectorClock
    from repro.memory.access_control import AccessControl
    import repro.runtime.program as program_mod

    before = (VectorClock.merge, AccessControl.invalidate, program_mod.Dsm)
    bench.traced_pass(list(reduced("sweep-g4096").ops), bench.load_fingerprints())
    assert (VectorClock.merge, AccessControl.invalidate, program_mod.Dsm) == before


def test_cell_runner_matches_run_experiment():
    from repro.harness.experiment import RunConfig, run_experiment

    cell = reduced("sweep-g4096").ops[0]
    res, _ = bench._Sim().run_cell(cell)
    cfg = RunConfig(app=cell.app, protocol=cell.protocol,
                    granularity=cell.granularity, nprocs=cell.nprocs)
    assert res.fingerprint == bench.stats_sha(run_experiment(cfg).stats)


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in bench.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert set(bench.load_fingerprints()) == {
        op.key for w in bench.WORKLOADS.values() for op in w.ops
    }
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert all(unit_re.fullmatch(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lrc-g64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
