"""Replay-engine throughput: cold record vs generator vs array-direct.

Four benchmarks over the same workload (one query, four processors, the
scale's baseline machine) isolate the layers of the trace pipeline:

* ``cold_record`` -- one full engine execution per processor, traced and
  recorded (the cost every later replay amortizes away);
* ``generator_replay`` -- :meth:`Interleaver.run` over ``replay()``
  streams, the PR-1 replay path (one tuple per event);
* ``array_direct_replay`` -- :meth:`Interleaver.run_traces` straight off
  the columnar arrays with the scalar reference kernel;
* ``batched_replay`` -- the same traces through the batched kernel
  (:mod:`repro.memsim.batch`), the default whenever numpy is importable.

``extra_info`` records events per second for each, so the speedup of the
array-direct dispatch over the generator path -- and of the batched
kernel over scalar dispatch -- is visible in the saved
benchmark JSON.  For the scripted kernel comparison with a CI regression
gate, see ``scripts/bench_replay.py`` and
``benchmarks/BENCH_replay.json``.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.experiment import workload_trace_cache
from repro.db.shmem import shared_home_fn
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import NumaMachine
from repro.tpcd.scales import get_scale

QID = "Q6"
N_PROCS = 4


def _events_per_sec(benchmark, traces):
    events = sum(len(t) for t in traces)
    elapsed = benchmark.stats.stats.total
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = f"{events / elapsed:,.0f}"


def test_bench_cold_record(benchmark, scale):
    sc = get_scale(scale)
    cache = workload_trace_cache(sc)

    def record():
        # Seeds nothing else uses, so every round is a fresh recording.
        return [cache._record(QID, 9000 + i, i, sc.arena_size)
                for i in range(N_PROCS)]

    traces = run_once(benchmark, record)
    _events_per_sec(benchmark, traces)


def test_bench_generator_replay(benchmark, scale):
    sc = get_scale(scale)
    cache = workload_trace_cache(sc)
    traces = [cache.get(QID, i, i) for i in range(N_PROCS)]

    def replay():
        machine = NumaMachine(sc.machine_config(), home_fn=shared_home_fn())
        return Interleaver(machine).run(
            [cache.stream(QID, i, i) for i in range(N_PROCS)])

    run = run_once(benchmark, replay)
    _events_per_sec(benchmark, traces)
    benchmark.extra_info["exec_time"] = run.exec_time


def test_bench_array_direct_replay(benchmark, scale):
    sc = get_scale(scale)
    cache = workload_trace_cache(sc)
    traces = [cache.get(QID, i, i) for i in range(N_PROCS)]

    def replay():
        machine = NumaMachine(sc.machine_config(), home_fn=shared_home_fn())
        return Interleaver(machine).run_traces(traces, kernel="scalar")

    run = run_once(benchmark, replay)
    _events_per_sec(benchmark, traces)
    benchmark.extra_info["exec_time"] = run.exec_time


def test_bench_batched_replay(benchmark, scale):
    from repro.memsim.batch import HAVE_NUMPY

    if not HAVE_NUMPY:
        pytest.skip("the batched kernel needs numpy (the 'perf' extra)")
    sc = get_scale(scale)
    cache = workload_trace_cache(sc)
    traces = [cache.get(QID, i, i) for i in range(N_PROCS)]
    # Build the plans outside the timer: a sweep pays them once per
    # geometry, not per replay, so the steady-state dispatch is the
    # number that matters here.
    shift = sc.machine_config().l1_line.bit_length() - 1
    machine = NumaMachine(sc.machine_config(), home_fn=shared_home_fn())
    for t in traces:
        t.batch_plan(shift, machine._l1_nsets)

    def replay():
        m = NumaMachine(sc.machine_config(), home_fn=shared_home_fn())
        return Interleaver(m).run_traces(traces, kernel="batched")

    run = run_once(benchmark, replay)
    _events_per_sec(benchmark, traces)
    benchmark.extra_info["exec_time"] = run.exec_time

