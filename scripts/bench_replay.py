"""Replay-kernel benchmark: scalar vs batched on warm traces.

Times :meth:`Interleaver.run_traces` under both dispatch kernels over
the same recorded traces (one query per processor, the scale's
baseline machine) and writes a schema-versioned JSON report::

    PYTHONPATH=src python scripts/bench_replay.py --scale small \\
        --trace-dir ~/.cache/repro-traces --out bench-report.json

Batch plans are built outside the timers: a sweep pays them once per
trace geometry, so the steady-state dispatch cost is the number a
kernel change moves.

With ``--check BASELINE`` the measured aggregate batched speedup is
gated against the committed baseline's ``gate.min_speedup`` floor
(exit 1 below it), so CI catches a replay-kernel regression without
chasing absolute seconds across runner hardware.  The committed
baseline (``benchmarks/BENCH_replay.json``) records the numbers
measured on the development machine; refresh it with ``--out`` after
deliberate kernel work, and keep the floor at a value the change
actually measured.

Each run also appends a one-line trajectory entry (timestamp, totals,
speedups) to a repo-root ``BENCH_replay.json``, so the kernels' history
accumulates across PRs; point it elsewhere or disable it with
``--trajectory``.
"""

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone
from time import perf_counter

SCHEMA = "repro.bench_replay/3"
TRAJ_SCHEMA = "repro.bench_replay_traj/2"
KERNELS = ("scalar", "batched")
DEFAULT_QUERIES = ["Q1", "Q3", "Q6", "Q12", "Q17"]
DEFAULT_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_replay.json")


def bench_query(qid, scale, cache, n_procs, reps):
    from repro.db.shmem import shared_home_fn
    from repro.memsim.interleave import Interleaver
    from repro.memsim.numa import NumaMachine

    traces = [cache.get(qid, i, i, arena_size=scale.arena_size)
              for i in range(n_procs)]
    rows = sum(len(t) for t in traces)
    config = scale.machine_config()
    # Warm the per-trace plans before any timer starts: a sweep pays
    # them once per geometry.
    probe = NumaMachine(config, home_fn=shared_home_fn())
    shift = config.l1_line.bit_length() - 1
    for t in traces:
        t.batch_plan(shift, probe._l1_nsets)
    out = {"rows": rows}
    for kernel in KERNELS:
        times = []
        for _ in range(reps):
            machine = NumaMachine(config, home_fn=shared_home_fn())
            t0 = perf_counter()
            Interleaver(machine).run_traces(traces, kernel=kernel)
            times.append(perf_counter() - t0)
        out[f"{kernel}_s"] = round(min(times), 4)
    out["speedup"] = round(out["scalar_s"] / out["batched_s"], 3) \
        if out["batched_s"] else 0.0
    return out


def check(report, baseline_path):
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != SCHEMA:
        print(f"baseline schema {baseline.get('schema')!r} != {SCHEMA!r}",
              file=sys.stderr)
        return 1
    floor = baseline["gate"]["min_speedup"]
    measured = report["total"]["speedup"]
    if measured < floor:
        print(f"FAIL: aggregate batched speedup {measured:.2f}x is below "
              f"the gate floor {floor:.2f}x (baseline measured "
              f"{baseline['total']['speedup']:.2f}x)", file=sys.stderr)
        return 1
    print(f"gate ok: aggregate speedup {measured:.2f}x >= floor "
          f"{floor:.2f}x")
    return 0


def append_trajectory(path, report):
    """Append one compact JSON line summarizing this run to ``path``.

    The file is newline-delimited JSON (one entry per bench run), so the
    kernels' performance history accumulates across PRs without merge
    conflicts on a pretty-printed blob.
    """
    entry = {
        "schema": TRAJ_SCHEMA,
        "when": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scale": report["scale"],
        "n_procs": report["n_procs"],
        "reps": report["reps"],
        "python": report["python"],
        "rows": report["total"]["rows"],
        "scalar_s": report["total"]["scalar_s"],
        "batched_s": report["total"]["batched_s"],
        "speedup": report["total"]["speedup"],
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"trajectory entry appended to {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the replay kernels "
                    "(scalar vs batched).")
    parser.add_argument("--scale", default="small")
    parser.add_argument("--queries", default=",".join(DEFAULT_QUERIES),
                        help="comma-separated query ids")
    parser.add_argument("--procs", type=int, default=4)
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per kernel (min is kept)")
    parser.add_argument("--trace-dir", default=None,
                        help="persistent trace store (records on first use)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report to FILE")
    parser.add_argument("--gate-floor", type=float, default=None,
                        metavar="X",
                        help="embed gate.min_speedup=X in the written "
                             "report (set it BELOW the measured speedup: "
                             "the gate is a regression tripwire, not a "
                             "target, and CI runners are noisy)")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="gate the aggregate speedup against a "
                             "committed baseline report")
    parser.add_argument("--trajectory", default=DEFAULT_TRAJECTORY,
                        metavar="FILE",
                        help="append a one-line run summary to FILE "
                             "(default: repo-root BENCH_replay.json; "
                             "'none' disables)")
    args = parser.parse_args(argv)

    from repro.core.experiment import set_trace_dir, workload_trace_cache
    from repro.memsim.batch import HAVE_NUMPY
    from repro.tpcd.scales import get_scale

    if not HAVE_NUMPY:
        print("numpy is not importable: the batched kernel would fall "
              "back to scalar and the comparison would be "
              "meaningless; install the 'perf' extra first", file=sys.stderr)
        return 2

    if args.trace_dir:
        set_trace_dir(args.trace_dir)
    scale = get_scale(args.scale)
    cache = workload_trace_cache(args.scale)
    queries = [q.strip() for q in args.queries.split(",") if q.strip()]

    report = {
        "schema": SCHEMA,
        "scale": args.scale,
        "n_procs": args.procs,
        "reps": args.reps,
        "python": platform.python_version(),
        "queries": {},
    }
    print(f"{'query':8s} {'rows':>9s} {'scalar':>8s} {'batched':>8s} "
          f"{'speedup':>8s}")
    for qid in queries:
        result = bench_query(qid, scale, cache, args.procs, args.reps)
        report["queries"][qid] = result
        print(f"{qid:8s} {result['rows']:9d} {result['scalar_s']:8.3f} "
              f"{result['batched_s']:8.3f} {result['speedup']:7.2f}x")
    totals = {}
    for kernel in KERNELS:
        totals[f"{kernel}_s"] = round(
            sum(q[f"{kernel}_s"] for q in report["queries"].values()), 4)
    report["total"] = {
        "rows": sum(q["rows"] for q in report["queries"].values()),
        **totals,
        "speedup": round(totals["scalar_s"] / totals["batched_s"], 3)
        if totals["batched_s"] else 0.0,
    }
    print(f"{'total':8s} {report['total']['rows']:9d} "
          f"{totals['scalar_s']:8.3f} {totals['batched_s']:8.3f} "
          f"{report['total']['speedup']:7.2f}x")

    if args.gate_floor is not None:
        report["gate"] = {"min_speedup": args.gate_floor}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    if args.trajectory and args.trajectory != "none":
        append_trajectory(args.trajectory, report)
    if args.check:
        return check(report, args.check)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
