"""Benchmark for ahomotopy: one command, two workloads, checked answers.

    python3 perfbench/run.py --workload {queries,invariants}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it times set-up in several fresh interpreters, then
runs the workload untraced in one more and prints the end-to-end
metrics.  With ``--trace 1`` it runs a fixed number of rounds of the
workload (``TRACE_ROUNDS``, whatever ``--seconds`` says) untraced, then
the same rounds again with a span around each layer function, and
prints the per-layer metrics and the tracing overhead.  Every run is a fresh
interpreter, so no cache carries over from one run to the next.  The
last stdout line is a JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import TRACE_ROUNDS, WORKLOADS  # noqa: E402

SETUP_RUNS = 11
DEADLINE_S = 170.0


class RunError(Exception):
    """A worker failed to produce a result."""


def worker(args, deadline, workdir, *extra):
    """Run the worker in a fresh interpreter; return (wall seconds,
    parsed last stdout line or None for set-up runs)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, *extra]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the benchmark deadline") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    if "--setup-only" in extra:
        return wall, None
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setup_s):
    """End-to-end metrics from one untraced run, plus the report lines."""
    d = sorted(res["durations"])
    n = len(d)
    ok = res["outcomes"].get("ok", 0)
    unknown = res["outcomes"].get("unknown", 0)
    failed = res["outcomes"].get("failed", 0)
    if n > 10:
        tail, pct = d[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = d[-1], 100.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((ok + unknown) / res["busy_s"], "1/s"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    lines = [f"{k:<16} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines[0] += f"  (median of {SETUP_RUNS} fresh interpreters)"
    lines[1] += f"  (completed ops / {res['busy_s']:.3f} s of op time)"
    lines[3] += f"  (p{pct:.3f}: 10 of {n} samples beyond it)"
    lines += [
        f"{'fail_ratio':<16} {failed / n:.6g}  ({failed} of {n} ops)",
        f"{'unknown_ratio':<16} {unknown / n:.6g}  ({unknown} of {n} ops)",
    ]
    return metrics, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int,
                   help="rounds per traced run, instead of the workload's fixed count")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "ahomotopy", "__init__.py")):
        print("error: no src/ahomotopy next to the benchmark", file=sys.stderr)
        return 2
    base_dir = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(base_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, deadline, workdir)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base_dir)
        except OSError:
            pass


def measure(args, deadline, workdir):
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} (one client, closed loop, one worker process)")
    if args.trace == 0:
        setups = [worker(args, deadline, os.path.join(workdir, f"setup{k}"), "--setup-only")[0]
                  for k in range(SETUP_RUNS)]
        _, res = worker(args, deadline, os.path.join(workdir, "run"),
                        "--seconds", str(args.seconds))
        values, lines = end_to_end(res, statistics.median(setups))
        runs = [res]
    else:
        rounds = str(args.rounds or TRACE_ROUNDS[args.workload])
        _, plain = worker(args, deadline, os.path.join(workdir, "plain"), "--rounds", rounds)
        _, traced = worker(args, deadline, os.path.join(workdir, "traced"),
                           "--rounds", rounds, "--trace")
        layers = spans.layer_metrics(traced["spans"])
        overhead = traced["busy_s"] - plain["busy_s"]
        layers[spans.OVERHEAD] = overhead / plain["busy_s"]
        values = {name: (layers[name], unit) for name, unit in spans.metric_names()}
        lines = [f"{k:<52} {v:.6g} {u}" for k, (v, u) in values.items()]
        lines += [
            f"tracing overhead: {overhead:.4f} s over {plain['busy_s']:.4f} s of untraced "
            f"op time, same seed and {plain['rounds']} rounds",
            "wait time: none; the layers run in one thread with no I/O inside "
            "ops, so no layer waits on another",
        ]
        runs = [plain, traced]
    attempted = sum(len(r["durations"]) for r in runs)
    failed = sum(r["outcomes"].get("failed", 0) for r in runs)
    for r in runs:
        lines.append(f"rounds={r['rounds']} ops={len(r['durations'])} "
                     f"busy_s={r['busy_s']:.4f} digest(round 0)={r['digest']}")
        lines += [f"failure: {f}" for f in r["failures"]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
