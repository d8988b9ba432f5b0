"""Child process of ``run.py``: one set-up, or the timed passes of a run.

    measure.py setup --workload W --seed S --store DIR --out FILE
    measure.py run   --workload W --seed S --store DIR --out FILE
                     --seconds N [--trace] [--spans FILE]

``run`` times each operation of a pass between two full calibration slices,
with short samples taken inside it (:mod:`calib`), and hashes its result.
Untraced, passes repeat until ``--seconds`` of operations have run.  With
``--trace`` it makes one untraced pass and one traced pass (:mod:`tracer`;
for ``fabric-1w`` also a traced in-process repeat) and reports the
per-layer figures of the traced ones.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, db_seed  # noqa: E402

#: Upper bound on untraced passes in one run (short workloads repeat).
MAX_PASSES = 20


def _canonical(obj):
    if isinstance(obj, dict):
        return {repr(k) if not isinstance(k, str) else k: _canonical(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def digest(result):
    """Stable hash of an operation's result (dict keys sorted, tuple keys
    by ``repr``, floats by ``repr`` through ``json``)."""
    text = json.dumps(_canonical(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(ops, outputs, tracer=None, offset=0):
    """Time every op of one pass; returns the per-op records."""
    sampler = calib.Sampler()
    undo = []
    if tracer is not None:
        sampler.on_sample = tracer.sample
        undo = tracing.install(tracer, sampler)
    records = []
    try:
        before = calib.timed_slice()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = offset + index
            spent = sampler.total
            sampler.arm()
            t0 = time.perf_counter()
            error = None
            try:
                if tracer is not None:
                    out = tracer.call(op.layer, op.fn)
                else:
                    out = op.fn()
            except Exception as exc:  # an op that fails is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            samples = sampler.disarm()
            after = calib.timed_slice()
            seconds = (t1 - t0) - (sampler.total - spent)
            unit = calib.unit_seconds(before, after, samples)
            outputs[op.name] = out
            records.append({
                "name": op.name, "key": op.key, "layer": op.layer,
                "qid": op.qid, "points": op.points, "start": t0, "end": t1,
                "seconds": seconds, "unit": unit, "cu": seconds / unit,
                "calib_s": before + (sampler.total - spent),
                "error": error,
                "hash": None if error else digest(out),
            })
            before = after
        records[-1]["calib_s"] += before
    finally:
        if tracer is not None:
            tracer.op = None
            tracing.uninstall(undo)
    if sampler.bad_checksum:
        raise calib.CalibrationError("in-op sample checksum mismatch")
    return records


def _pass_summary(records):
    return {"wall_s": sum(r["seconds"] for r in records),
            "wall_cu": sum(r["cu"] for r in records),
            "calib_s": sum(r["calib_s"] for r in records)}


def _per_mrow(value, rows):
    return value / (rows / 1e6) if rows else 0.0


def program_counters():
    """Process-wide counters the program keeps itself."""
    from repro.core import fabric_stats, supervisor_stats
    from repro.obs import registry

    fallbacks = registry().items("interleave.kernel.fallback")
    return {"memsim.kernel_fallbacks": sum(m.value for _, m in fallbacks),
            "sweep.retries": supervisor_stats()["retries"],
            "backend.requeued": fabric_stats()["requeued"]}


def layer_metrics(tracer, records, primary, untraced, counters):
    """The per-layer figures of a traced run (see README.md).  ``records``
    are every traced op, indexed as the tracer saw them; ``primary`` and
    ``untraced`` summarize the workload's own traced and untraced passes;
    ``counters`` are :func:`program_counters` deltas over the traced run."""
    rows = tracer.self_times()
    c = tracer.counts
    layers = {}     # name -> [total cu, self cu, calls, total seconds]
    by_qid = {}
    for name, op, total, own in rows:
        unit = records[op]["unit"]
        entry = layers.setdefault(name, [0.0, 0.0, 0, 0.0])
        entry[0] += total / unit
        entry[1] += own / unit
        entry[2] += 1
        entry[3] += total
        if name == "memsim.replay":
            qid = records[op]["qid"]
            by_qid[qid] = by_qid.get(qid, 0.0) + own / unit

    def total_cu(name):
        return layers.get(name, [0.0] * 4)[0]

    def self_cu(name):
        return layers.get(name, [0.0] * 4)[1]

    replayed = {op for name, op, _, _ in rows if name == "memsim.replay"}
    points = sum(r["points"] for r in primary["records"])
    point_cu = sorted(r["cu"] for i, r in enumerate(records)
                      if r["points"] == 1 and i in replayed)
    wall = sum(r["end"] - r["start"] for r in records)
    covered = sum(tracer.covered(i, r["start"], r["end"])
                  for i, r in enumerate(records))
    m = {
        "memsim.replay_cu": self_cu("memsim.replay"),
        "memsim.rows": c["memsim.rows"],
        "memsim.cu_per_mrow": _per_mrow(self_cu("memsim.replay"),
                                        c["memsim.rows"]),
        "memsim.sim_cycles": c["memsim.sim_cycles"],
        "memsim.l1_misses": c["memsim.l1_misses"],
        "memsim.l2_misses": c["memsim.l2_misses"],
        "memsim.l2_coherence": c["memsim.l2_coherence"],
        "memsim.lock_line_coherence": c["memsim.lock_line_coherence"],
        "memsim.msync_cycles": c["memsim.msync_cycles"],
        "db.exec_cu": self_cu("db.exec"),
        "db.rows_out": c["db.rows_out"],
        "experiment.live_cu": total_cu("memsim.live"),
        "tracecache.record_cu": self_cu("tracecache.get"),
        "tracecache.rows": c["tracecache.rows"],
        "tracecache.record_cu_per_mrow": _per_mrow(
            self_cu("tracecache.get"), c["tracecache.rows"]),
        "tracecache.hit_frac": (c["tracecache.hits"] / c["tracecache.gets"]
                                if c["tracecache.gets"] else 0.0),
        "workload.schedule_cu": total_cu("workload.schedule"),
        "workload.record_cu": self_cu("workload.record"),
        "workload.ops": c["workload.ops"],
        "tpcd.dbgen_s": layers.get("tpcd.dbgen", [0.0] * 4)[3],
        "tracestore.load_s": layers.get("tracestore.load", [0.0] * 4)[3],
        "tracestore.save_cu": total_cu("tracestore.save"),
        "tracestore.mb": c["tracestore.bytes"] / 1e6,
        "sweep.points": points,
        # Requested points answered without a replay (the point memo).
        "sweep.memo_hit_frac": ((points - layers.get("memsim.replay",
                                                     [0] * 4)[2]) / points
                                if points else 0.0),
        "sweep.point_cu_p50": (statistics.median(point_cu)
                               if point_cu else 0.0),
        "sweep.point_cu_max": point_cu[-1] if point_cu else 0.0,
        "sweep.overhead_cu": self_cu("sweep.run"),
        "backend.overhead_cu": 0.0,
        "backend.overhead_ms_per_point": 0.0,
        "backend.frames": c["backend.frames"],
        "backend.ship_mb": 0.0,
        "experiments.report_cu": total_cu("experiments.report"),
        "trace.unattributed_frac": (wall - covered) / wall if wall else 0.0,
        "trace.overhead_frac": (primary["wall_cu"] / untraced["wall_cu"] - 1
                                if untraced["wall_cu"] else 0.0),
    }
    for qid in ("Q3", "Q6", "Q12"):
        m[f"memsim.replay_cu.{qid}"] = by_qid.get(qid, 0.0)
    m.update(counters)
    table = [(name, v[2], v[0], v[1]) for name, v in sorted(layers.items())]
    return m, table


def _fabric_overhead(metrics, workers, inproc, store):
    """Fabric cost: the worker sweeps minus the same sweeps in-process."""
    sweeps = [r for r in workers["records"] if r["layer"] == "sweep.run"]
    local = [r for r in inproc["records"] if r["layer"] == "sweep.run"]
    points = sum(r["points"] for r in sweeps) or 1
    metrics["backend.overhead_cu"] = (sum(r["cu"] for r in sweeps)
                                      - sum(r["cu"] for r in local))
    metrics["backend.overhead_ms_per_point"] = 1000.0 * (
        sum(r["seconds"] for r in sweeps)
        - sum(r["seconds"] for r in local)) / points
    metrics["backend.ship_mb"] = sum(
        os.path.getsize(os.path.join(store, f)) for f in os.listdir(store)
    ) / 1e6


def cmd_setup(args):
    workload = WORKLOADS[args.workload]
    info = workload.setup(db_seed(args.seed), args.store)
    with open(args.out, "w") as fh:
        json.dump(info, fh)


def cmd_run(args):
    workload = WORKLOADS[args.workload]
    seed = db_seed(args.seed)
    result = {"selftest": calib.self_test(), "passes": []}

    def one_pass(tracer=None, offset=0, **variant):
        outputs = {}
        ops = workload.ops(seed, args.store, outputs, **variant)
        cpu0 = _cpu_seconds()
        records = run_pass(ops, outputs, tracer, offset)
        summary = _pass_summary(records)
        summary["cpu_s"] = _cpu_seconds() - cpu0
        summary["records"] = records
        return summary

    if not args.trace:
        measured = 0.0
        while (len(result["passes"]) < workload.min_passes
               or (measured < args.seconds
                   and len(result["passes"]) < MAX_PASSES)):
            p = one_pass()
            result["passes"].append(p)
            measured += p["wall_s"] + p["calib_s"]
    else:
        untraced = one_pass()
        tracer = tracing.Tracer(
            f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        before = program_counters()
        traced = one_pass(tracer)
        records = list(traced["records"])
        extra = None
        if args.workload == "fabric-1w":
            # The worker's replays are out of the tracer's sight: the same
            # sweeps in-process give the memsim figures and the baseline
            # the fabric's overhead is measured against.
            extra = one_pass(tracer, len(records), backend="inproc")
            records += extra["records"]
        after = program_counters()
        metrics, table = layer_metrics(
            tracer, records, traced, untraced,
            {k: after[k] - before[k] for k in after})
        if extra is not None:
            _fabric_overhead(metrics, traced, extra, args.store)
        result["passes"] = [untraced, traced] + ([extra] if extra else [])
        result["layers"] = metrics
        result["table"] = table
        result["traced_span_cu"] = sum((r["end"] - r["start"]) / r["unit"]
                                       for r in records)
        if args.spans:
            tracer.write(args.spans)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (usage + children) / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.command == "setup":
        cmd_setup(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
