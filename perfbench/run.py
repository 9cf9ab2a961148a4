"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lrc-g64 --seed 1 --seconds 25 --trace 0

``--trace 0`` runs timed passes with tracing off -- as many as fit in
``--seconds``, and at least two -- and prints the end-to-end metrics
(medians over the passes).  ``--trace 1`` runs one untraced and one traced pass,
prints the per-layer metrics and writes the spans as Chrome trace-event
JSON under ``perfbench/out/``.  Every pass checks every operation
against its pinned fingerprint.

The run header (Python version, simcore backend, nproc, git commit,
seed) is printed as a JSON line before the metrics; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: exit status when the checkout has no program to benchmark
NO_PROGRAM = 3


def git_commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def header(workload: str, seed: int, trace: bool) -> dict:
    import repro.simcore

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "simcore_backend": repro.simcore.BACKEND,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(ops, fingerprints, seconds: float, out):
    """Timed passes filling ``seconds``, set-up samples between them.

    A further pass starts while it is predicted (from the slowest pass
    so far) to end within ``seconds``, and until there are
    ``MIN_PASSES`` unless one pass alone took longer than ``seconds``.
    """
    setups: dict = {}
    passes = []
    start = perf_counter()
    while True:
        bench.add_setup_samples(ops, setups)
        passes.append(bench.run_pass(ops, fingerprints))
        elapsed = perf_counter() - start
        next_end = elapsed + max(p.wall_s for p in passes)
        if next_end > bench.MAX_MEASURE_SECONDS:
            break
        if next_end > seconds and (len(passes) >= bench.MIN_PASSES or elapsed > seconds):
            break
    bench.add_setup_samples(ops, setups)
    metrics = bench.end_to_end_metrics(passes, setups, peak_rss_mb())
    probes = [o.probe_s for p in passes for o in p.ops]
    print(f"# host speed: probe median {statistics.median(probes) * 1e3:.3f} ms "
          f"(reference {bench.PROBE_REF_S * 1e3:.3f} ms); unscaled wall_s per pass "
          + " ".join(f"{p.wall_s:.3f}" for p in passes), file=out)
    return passes, metrics, bench.END_TO_END


def traced_run(ops, fingerprints, trace_path: Path, head: dict):
    """One untraced pass, then one traced pass; per-layer metrics."""
    untraced = bench.run_pass(ops, fingerprints)
    traced, tracer, layer, regions = bench.traced_pass(ops, fingerprints)
    metrics = bench.per_layer_metrics(tracer, layer, regions, traced, untraced)
    tracer.write(trace_path, dict(head, untraced_wall_s=untraced.wall_s,
                                  traced_wall_s=traced.wall_s))
    return [untraced, traced], metrics, bench.PER_LAYER


def run(workload, seed: int, seconds: float, trace: bool, fingerprints=None,
        out=sys.stdout, trace_dir: Path = HERE / "out") -> dict:
    """Run ``workload`` and print its report; returns the result object."""
    if fingerprints is None:
        fingerprints = bench.load_fingerprints()
    ops = bench.ordered(workload, seed)
    head = header(workload.name, seed, trace)
    print(json.dumps({"header": head}), file=out)
    if trace:
        path = trace_dir / f"{workload.name}-seed{seed}.trace.json"
        passes, metrics, units = traced_run(ops, fingerprints, path, head)
        print(f"# trace written to {path}", file=out)
    else:
        passes, metrics, units = timed_run(ops, fingerprints, seconds, out)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for o in p.ops:
            if not o.ok:
                print(f"# FAILED {o.key}: {o.error}", file=out)
    print(f"# {workload.name}: {len(passes)} pass(es), seed {seed}", file=out)
    for name, value in metrics.items():
        print(f"{name:34s} {value:>18.6f} {units[name]}", file=out)
    print(f"{'failed_frac':34s} {failed / attempted:>18.6f} ratio "
          f"({failed}/{attempted} operations)", file=out)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return NO_PROGRAM
    sys.path.insert(0, str(SRC))
    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    run(workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
