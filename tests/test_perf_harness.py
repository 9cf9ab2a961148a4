"""The simulator-core perf suite: determinism, schema, and the gate.

Three properties matter:

* the measured workloads are deterministic -- two in-process runs of a
  full-cell micro produce bit-identical stats (same hash);
* ``BENCH_simcore.json`` (the committed baseline) matches the schema
  the gate reads;
* the gate actually fails: a synthetic 2x slowdown against a baseline
  exits nonzero through the real CLI path, and a stats-hash change is
  flagged even at identical speed.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.perf import (
    MICROS,
    PerfError,
    compare,
    format_suite,
    load_baseline,
    run_suite,
    save_baseline,
)
from repro.perf.gate import _measure
from repro.perf.micros import (
    MICRO_TUNING,
    diff_roundtrip,
    engine_churn,
    full_cell_swlrc,
    vc_merge,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_simcore.json")


# ----------------------------------------------------------------------
# workload determinism
# ----------------------------------------------------------------------
def test_full_cell_bit_identical_across_runs():
    counts1, sha1 = full_cell_swlrc()
    counts2, sha2 = full_cell_swlrc()
    assert sha1 == sha2
    assert counts1 == counts2
    assert counts1["events"] > 0


def test_throughput_micros_report_fixed_work():
    for fn in (engine_churn, vc_merge, diff_roundtrip):
        c1, _ = fn()
        c2, _ = fn()
        assert c1 == c2, fn.__name__


def test_measure_rejects_nondeterministic_micro():
    calls = [0]

    def flappy():
        calls[0] += 1
        return {"ops": 1}, f"sha-{calls[0]}"

    with pytest.raises(PerfError, match="non-deterministic"):
        _measure("flappy", flappy, reps=2, warmup=0)


def test_run_suite_rejects_unknown_micro():
    with pytest.raises(PerfError, match="unknown micro"):
        run_suite(reps=1, warmup=0, micros=["no_such_micro"], shares=False)


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
def test_committed_baseline_schema():
    data = load_baseline(BASELINE)
    assert data["schema"] == 1
    assert data["reps"] >= 1
    assert data["calibration"]["spin_ms"] > 0
    assert set(data["micros"]) == set(MICROS)
    for name, m in data["micros"].items():
        assert m["median_ms"] > 0, name
        assert m["mad_ms"] >= 0, name
        # noisy micros carry a rep floor on top of the suite default
        floor = MICRO_TUNING.get(name, {}).get("min_reps", 0)
        assert len(m["times_ms"]) == max(data["reps"], floor), name
        if name.startswith("full_cell_"):
            assert m["stats_sha"], name
            assert m["runs_per_sec"] > 0, name
            assert m["events_per_sec"] > 0, name
        else:
            assert m["stats_sha"] is None, name
    shares = data["subsystem_shares"]
    assert set(shares) >= {"engine", "protocol", "network", "runtime",
                           "apps", "other"}
    assert abs(sum(shares.values()) - 1.0) < 0.01


def test_fresh_suite_round_trips_through_json(tmp_path):
    suite = run_suite(reps=2, warmup=0, micros=["vc_merge"], shares=False)
    path = tmp_path / "bench.json"
    save_baseline(suite, str(path))
    data = load_baseline(str(path))
    assert data["micros"]["vc_merge"]["median_ms"] == pytest.approx(
        suite.micros["vc_merge"].median_ms, abs=1e-3
    )
    assert "ops/s" in format_suite(suite)


def test_load_baseline_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "micros": {}}))
    with pytest.raises(PerfError, match="schema"):
        load_baseline(str(path))


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
def _tiny_suite_dict():
    suite = run_suite(reps=2, warmup=0, micros=["full_cell_sc"], shares=False)
    return suite.to_dict()


def test_gate_passes_against_itself():
    current = _tiny_suite_dict()
    report = compare(current, copy.deepcopy(current))
    assert report.ok
    assert "gate PASSED" in report.describe()


def test_gate_fails_on_synthetic_2x_slowdown():
    baseline = _tiny_suite_dict()
    slowed = copy.deepcopy(baseline)
    for m in slowed["micros"].values():
        m["median_ms"] *= 2.0
    report = compare(slowed, baseline)
    assert not report.ok
    assert [r.micro for r in report.regressions] == ["full_cell_sc"]
    assert "REGRESSED" in report.describe()
    # ... and the other direction (a speedup) stays green.
    assert compare(baseline, slowed).ok


def test_gate_normalizes_by_calibration():
    baseline = _tiny_suite_dict()
    # Same workload timings measured on a machine twice as slow: the
    # calibration spin doubles too, so the gate must not flag it.
    slow_machine = copy.deepcopy(baseline)
    slow_machine["calibration"]["spin_ms"] *= 2.0
    for m in slow_machine["micros"].values():
        m["median_ms"] *= 2.0
    assert compare(slow_machine, baseline).ok


def test_gate_flags_determinism_break_at_equal_speed():
    baseline = _tiny_suite_dict()
    mutated = copy.deepcopy(baseline)
    mutated["micros"]["full_cell_sc"]["stats_sha"] = "deadbeefdeadbeef"
    report = compare(mutated, baseline)
    assert not report.ok
    assert report.regressions[0].determinism_broken
    assert "DETERMINISM" in report.describe()


def test_gate_skips_micros_missing_from_either_side():
    baseline = _tiny_suite_dict()
    current = copy.deepcopy(baseline)
    current["micros"]["brand_new_micro"] = {"median_ms": 1.0, "mad_ms": 0.0,
                                           "times_ms": [1.0], "stats_sha": None}
    baseline["micros"]["retired_micro"] = {"median_ms": 1.0, "mad_ms": 0.0,
                                           "times_ms": [1.0], "stats_sha": None}
    report = compare(current, baseline)
    assert [r.micro for r in report.rows] == ["full_cell_sc"]
    assert report.ok


# ----------------------------------------------------------------------
# CLI exit codes (the contract the CI perf job relies on)
# ----------------------------------------------------------------------
def test_cli_gate_exit_codes(tmp_path, capsys, monkeypatch):
    import repro.perf
    from repro.harness.cli import main

    # Every CLI call below reuses one suite measured once, so the
    # verdicts depend only on the baseline file, never on timing noise
    # between calls (real timing is covered by the round-trip test).
    suite = run_suite(reps=2, warmup=0, micros=["full_cell_sc"], shares=False)
    calls = []
    monkeypatch.setattr(repro.perf, "run_suite",
                        lambda **kw: calls.append(kw) or suite)
    baseline_path = tmp_path / "bench.json"
    argv = ["perf", "--reps", "2", "--micros", "full_cell_sc",
            "--against", str(baseline_path)]
    # Missing baseline: hard failure so CI never silently skips the gate.
    assert main(argv) == 2
    # Record a baseline, then gate against it: passes.
    assert main(argv + ["--update"]) == 0
    assert main(argv) == 0
    # Synthetic 2x slowdown written into the baseline file (i.e. the
    # baseline machine was twice as fast at everything *except* the
    # calibration spin): the real CLI path must exit 2.
    data = json.loads(baseline_path.read_text())
    for m in data["micros"].values():
        m["median_ms"] /= 2.0
    baseline_path.write_text(json.dumps(data))
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert "gate FAILED" in out
    assert calls[-1] == {"reps": 2, "micros": ["full_cell_sc"]}
