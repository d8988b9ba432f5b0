"""Spans around the calls the benchmark makes into each layer.

Tracing is installed only for the traced pass: it wraps public entry points
of the program (and, for the worker fabric, its frame codec) from here, so
nothing under ``src/`` changes.  Spans stay in memory and are written once
at the end of the run.  A layer's self time is its span minus the spans
nested in it, minus the executor time charged to it (see
:func:`_traced_execute`), minus the calibration samples taken inside it.
"""

import functools
import json
import time
from collections import Counter, defaultdict

_pc = time.perf_counter


class Tracer:
    """In-memory span recorder for one traced pass.

    Every span carries ``run_id`` (written once in the output), a name,
    start, end, the id of the span that was open when it began, and the
    index of the benchmark operation it ran under.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.charged = defaultdict(float)   # (layer, op) -> seconds

    def begin(self, name):
        span = {"id": len(self.spans),
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "start": _pc(), "end": None, "op": self.op,
                "attrs": {}, "charged": 0.0}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span):
        span["end"] = _pc()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def call(self, name, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def sample(self, t0, t1):
        """Record one calibration sample as a closed child of the open span."""
        self.spans.append({"id": len(self.spans),
                           "parent": self.stack[-1]["id"] if self.stack
                           else None,
                           "name": "host.calib", "start": t0, "end": t1,
                           "op": self.op, "attrs": {}, "charged": 0.0})

    def charge(self, name, seconds):
        """Book ``seconds`` of fragmented work (executor resumptions) to
        layer ``name``, out of the open span's self time."""
        if self.stack:
            self.stack[-1]["charged"] += seconds
        self.charged[(name, self.op)] += seconds

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """``[(name, op, seconds_total, seconds_self)]`` per span, plus one
        row per charged bucket."""
        nested = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                nested[s["parent"]] += s["end"] - s["start"]
        rows = []
        for s in self.spans:
            total = s["end"] - s["start"]
            own = total - nested[s["id"]] - s["charged"]
            rows.append((s["name"], s["op"], total, own))
        for (name, op), seconds in self.charged.items():
            rows.append((name, op, seconds, seconds))
        return rows

    def covered(self, op, start, end):
        """Seconds of ``[start, end]`` covered by top-level spans of ``op``."""
        return sum(min(s["end"], end) - max(s["start"], start)
                   for s in self.spans
                   if s["parent"] is None and s["op"] == op
                   and s["end"] > start and s["start"] < end)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "counts": dict(self.counts),
                       "spans": self.spans}, fh)


# -- wrappers --------------------------------------------------------------

def _wrap(tracer, name, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if post is not None:
            post(span, args, out)
        return out
    return wrapper


def _traced_execute(tracer, sampler, execute):
    """``Database.execute`` returns a generator the interleaver or recorder
    resumes once per event.  Time inside each resumption is charged to
    ``db.exec``; calibration samples taken during a resumption are not."""
    @functools.wraps(execute)
    def wrapper(*args, **kwargs):
        gen = execute(*args, **kwargs)
        try:
            while True:
                t0 = _pc()
                s0 = sampler.total
                try:
                    event = next(gen)
                except StopIteration as stop:
                    tracer.charge("db.exec", _pc() - t0 - (sampler.total - s0))
                    rows = stop.value
                    if isinstance(rows, list):
                        tracer.counts["db.rows_out"] += len(rows)
                    return rows
                tracer.charge("db.exec", _pc() - t0 - (sampler.total - s0))
                yield event
        finally:
            gen.close()
    return wrapper


def _sim_counts(tracer, machine, result):
    from repro.memsim.events import DataClass

    stats = machine.stats
    c = tracer.counts
    c["memsim.sim_cycles"] += result.exec_time
    c["memsim.msync_cycles"] += result.total.msync
    c["memsim.l1_misses"] += (stats.total_l1_read_misses()
                              + stats.l1_write_misses)
    c["memsim.l2_misses"] += (stats.total_l2_read_misses()
                              + stats.l2_write_misses)
    c["memsim.l2_coherence"] += sum(row[2] for row in stats.l2_read_misses)
    c["memsim.lock_line_coherence"] += \
        stats.l2_read_misses[DataClass.LOCKSLOCK][2]


def install(tracer, sampler):
    """Wrap the traced entry points; returns an undo list for
    :func:`uninstall`."""
    from repro.core import backend, tracestore
    from repro.core.tracecache import TraceCache
    from repro.db.engine import Database
    from repro.memsim.interleave import Interleaver
    from repro.tpcd import dbgen
    from repro.workload import session

    c = tracer.counts

    def after_replay(span, args, out):
        self, traces = args[0], args[1]
        rows = sum(len(t) for t in traces)
        span["attrs"]["rows"] = rows
        c["memsim.rows"] += rows
        _sim_counts(tracer, self.machine, out)

    def after_live(span, args, out):
        _sim_counts(tracer, args[0].machine, out)

    def traced_get(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            hits, records = self.hits, self.records
            span = tracer.begin("tracecache.get")
            try:
                trace = fn(self, *args, **kwargs)
            finally:
                tracer.end(span)
            c["tracecache.gets"] += 1
            c["tracecache.hits"] += self.hits - hits
            if self.records > records:
                c["tracecache.rows"] += len(trace)
            return trace
        return wrapper

    def after_load(span, args, out):
        if out is not None:
            c["tracestore.bytes"] += out[1]

    def after_save(span, args, out):
        c["tracestore.bytes"] += out

    def after_schedule(span, args, out):
        c["workload.ops"] += len(out)

    def counted(key, fn, count_none=True):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if count_none or out is not None:
                c[key] += 1
            return out
        return wrapper

    patches = [
        (Interleaver, "run_traces",
         _wrap(tracer, "memsim.replay", Interleaver.run_traces,
               after_replay)),
        (Interleaver, "run",
         _wrap(tracer, "memsim.live", Interleaver.run, after_live)),
        (TraceCache, "get", traced_get(TraceCache.get)),
        (tracestore, "load_trace",
         _wrap(tracer, "tracestore.load", tracestore.load_trace,
               after_load)),
        (tracestore, "save_trace",
         _wrap(tracer, "tracestore.save", tracestore.save_trace,
               after_save)),
        (dbgen, "build_database",
         _wrap(tracer, "tpcd.dbgen", dbgen.build_database)),
        (session, "record_scenario",
         _wrap(tracer, "workload.record", session.record_scenario)),
        (session, "build_schedule",
         _wrap(tracer, "workload.schedule", session.build_schedule,
               after_schedule)),
        (Database, "execute",
         _traced_execute(tracer, sampler, Database.execute)),
        (backend, "pack_frame",
         counted("backend.frames", backend.pack_frame)),
        (backend.FrameBuffer, "next_frame",
         counted("backend.frames", backend.FrameBuffer.next_frame,
                 count_none=False)),
    ]
    undo = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    for obj, attr, new in patches:
        setattr(obj, attr, new)
    return undo


def uninstall(undo):
    for obj, attr, original in undo:
        setattr(obj, attr, original)
