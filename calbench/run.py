"""Benchmark entry point: set up, measure and check one workload.

    python3 calbench/run.py --workload sweep-warm --seed 1 --seconds 12 --trace 0

Run it from the repository root.  Set-up runs ``SETUP_REPS`` times, each in
a fresh process; the timed passes run in one more fresh process.  Only one
process is busy at a time: this one waits while a child works.  The last
line of standard output is the JSON result; with ``--trace 1`` a self-time
table per layer is printed above it.  See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, db_seed  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds after which a run is abandoned and its children killed.
DEADLINE = 170

END_TO_END = {"wall_cu": "cu", "setup_s": "s", "peak_rss_mb": "MB",
              "ops_ok_frac": "fraction"}
#: Per-layer units by name fragment, first match wins; the rest are counts.
PER_LAYER_UNITS = (("_per_mrow", "cu/Mrow"), ("_ms_per_point", "ms"),
                   ("_cycles", "cycles"),
                   ("_cu", "cu"), ("_frac", "fraction"), ("mb", "MB"),
                   ("_s", "s"))


def _unit(name):
    for fragment, unit in PER_LAYER_UNITS:
        if fragment in name:
            return unit
    return "count"


def _child(args, env, deadline):
    """Run ``measure.py args`` in its own process group; returns its wall
    seconds.  Past ``deadline`` the whole group (a sweep worker included)
    is killed."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        raise SystemExit(f"calbench: {args[0]} child passed the deadline")
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"calbench: {args[0]} child failed with code {code}")
    return elapsed


def measure(workload, seed, seconds, trace, work):
    """Run set-up and the timed passes; returns ``(setups, result)``."""
    deadline = time.monotonic() + DEADLINE
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=os.path.join(work, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    store = None
    for rep in range(SETUP_REPS):
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
        store = os.path.join(work, f"store-{rep}")
        out = os.path.join(work, f"setup-{rep}.json")
        elapsed = _child(["setup"] + common + ["--store", store, "--out", out],
                         env, deadline)
        with open(out) as fh:
            info = json.load(fh)
        info["seconds"] = elapsed
        setups.append(info)
    out = os.path.join(work, "run.json")
    args = ["run"] + common + ["--store", store, "--out", out,
                               "--seconds", str(seconds)]
    if trace:
        spans_dir = os.path.join(ROOT, ".calbench-out")
        os.makedirs(spans_dir, exist_ok=True)
        args += ["--trace", "--spans",
                 os.path.join(spans_dir, f"{workload}.spans.json")]
    _child(args, env, deadline)
    with open(out) as fh:
        return setups, json.load(fh)


def check(workload, seed, result, expected):
    """Compare every op's hash with the expected table; returns
    ``(attempted, failed, problems)`` over every pass of the run."""
    table = expected.get(workload, {}).get(str(db_seed(seed)), {})
    problems = list(result["selftest"])
    attempted = failed = 0
    for p in result["passes"]:
        for r in p["records"]:
            attempted += 1
            want = table.get(r["key"])
            if r["error"] or want is None or r["hash"] != want:
                failed += 1
                problems.append(f"{r['name']}: "
                                f"{r['error'] or r['hash']} != {want}")
    return attempted, failed, problems


def print_table(table, wall_cu):
    print(f"{'layer':<22}{'calls':>8}{'total_cu':>12}{'self_cu':>12}"
          f"{'self%':>8}")
    for name, calls, total, own in sorted(table, key=lambda t: -t[3]):
        share = 100.0 * own / wall_cu if wall_cu else 0.0
        print(f"{name:<22}{calls:>8}{total:>12.1f}{own:>12.1f}{share:>7.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("calbench: no src/repro next to calbench/; run it "
                         "from a checkout of the repository")

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    work = os.path.join(ROOT, ".calbench-work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups, result = measure(args.workload, args.seed, args.seconds,
                                 args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted, failed, problems = check(args.workload, args.seed, result,
                                        expected)
    for msg in problems[:20]:
        print("MISMATCH", msg)
    passes = result["passes"]
    if args.trace:
        layers = dict(result["layers"])
        untraced = passes[0]
        calib_s = untraced["calib_s"]
        layers["host.cu_s"] = statistics.median(
            r["unit"] for r in untraced["records"])
        layers["host.calib_frac"] = calib_s / (untraced["wall_s"] + calib_s)
        layers["host.cpu_s"] = untraced["cpu_s"]
        layers["host.wall_s"] = untraced["wall_s"]
        layers["tpcd.dbgen_s"] += statistics.median(
            s["dbgen_s"] for s in setups)
        print_table(result["table"], result["traced_span_cu"])
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(layers.items())}
    else:
        # Raw seconds swing with the host by more than any usable bound,
        # so they are shown here and reported per layer, not gated.
        print(f"passes {len(passes)}  wall_s "
              f"{statistics.median(p['wall_s'] for p in passes):.3f}")
        values = {
            "wall_cu": statistics.median(p["wall_cu"] for p in passes),
            "setup_s": statistics.median(s["seconds"] for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_ok_frac": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
