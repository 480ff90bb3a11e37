"""One benchmark run in a fresh interpreter.

Sets its own memory and CPU caps, imports the package from ``src/``,
builds the workload's inputs (set-up), then runs whole rounds of
operations in a closed loop: one client, each operation starting when
the previous one returned.  Answers are checked after each operation,
outside the timed region.  The last line on stdout is a JSON object
with the per-operation times and outcomes.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        (--seconds S | --rounds R | --setup-only) [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MEMORY_CAP = 1536 << 20   # bytes of address space
OP_CAP_S = 60.0           # wall seconds for one operation
# Peak RSS is read after this many rounds (or at the end of a shorter
# run), so that it measures the same work whatever the machine's speed:
# the program's unbounded caches grow with every round.
RSS_ROUNDS = 5


class CapHit(Exception):
    """An operation ran past a cap."""


def _on_alarm(signum, frame):
    raise CapHit(f"operation ran past {OP_CAP_S:.0f} s")


def _on_xcpu(signum, frame):
    raise CapHit("process ran past its CPU cap")


def set_caps(cpu_s):
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 10))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGXCPU, _on_xcpu)


def run_ops(ops, clock=time.perf_counter):
    """Time each op and judge its result.  Returns (durations, outcomes,
    reports, capped): an op that raises, hits a cap or answers wrong
    gets a failure reason as its outcome; a CPU cap stops the loop."""
    durations, outcomes, reports = [], [], []
    for op in ops:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        t0 = clock()
        try:
            result = op.call()
        except (CapHit, MemoryError) as e:
            t1 = clock()
            outcome, report = f"{op.kind}: {type(e).__name__}: {e}", "capped"
        except Exception as e:
            t1 = clock()
            outcome = f"{op.kind}: raised {type(e).__name__}: {e}"
            report = "raised"
            traceback.print_exc(file=sys.stderr)
        else:
            t1 = clock()
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome, report = op.check(op.expect, result)
            if outcome not in ("ok", "unknown"):
                outcome = f"{op.kind}: {outcome}"
        signal.setitimer(signal.ITIMER_REAL, 0)
        durations.append(t1 - t0)
        outcomes.append(outcome)
        reports.append(report)
        if outcome.endswith("CPU cap"):
            return durations, outcomes, reports, True
    return durations, outcomes, reports, False


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    set_caps(int(3 * (args.seconds or 30)) + 60)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import ahomotopy  # noqa: F401  (fails here when the sources are missing)
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.workdir)
    first = workload.round(0)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()

    durations, outcomes, digest_reports = [], [], []
    busy = 0.0
    rounds = 0
    rss_mb = None
    capped = False
    while not capped:
        ops = first if rounds == 0 else workload.round(rounds)
        d, o, reports, capped = run_ops(ops)
        durations += d
        outcomes += o
        busy += sum(d)
        if rounds == 0:
            digest_reports = reports
        rounds += 1
        if rounds == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
        if args.rounds is not None and rounds >= args.rounds:
            break
        if args.seconds is not None and busy >= args.seconds:
            break

    result = {
        "durations": durations,
        "outcomes": {},
        "failures": [],
        "rounds": rounds,
        "busy_s": busy,
        "peak_rss_mb": rss_mb or peak_rss_mb(),
        "digest": workloads.digest(digest_reports),
    }
    for o in outcomes:
        key = o if o in ("ok", "unknown") else "failed"
        result["outcomes"][key] = result["outcomes"].get(key, 0) + 1
        if key == "failed" and len(result["failures"]) < 5:
            result["failures"].append(o)
    if recorder is not None:
        path = os.path.join(args.workdir, "spans.bin")
        recorder.dump(path)
        result["spans"] = path
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
