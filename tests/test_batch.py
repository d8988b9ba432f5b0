"""Replay kernels: bit-identity, partitioning, selection.

The batched engine (:mod:`repro.memsim.batch` plus
``Interleaver._run_traces_batched``) must be indistinguishable from the
scalar reference loop on every counter the simulator exposes.  These
tests drive both engines over synthetic traces -- built through the same
``record()`` coalescing path real queries use -- including adversarial
mixes hypothesis generates: shared lines, lock handoffs, line-crossing
accesses, L1-set aliasing, and write-buffer pressure.  The partitioner's
boundary rules and the kernel-selection precedence are pinned
separately.
"""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.run import RunConfig, configure_run, current_run_config
from repro.core.tracecache import record
from repro.memsim import batch
from repro.memsim.batch import (
    HAVE_NUMPY,
    MIN_BATCH,
    machine_batch_reason,
    resolve_kernel,
    set_default_kernel,
    trace_plan,
)
from repro.memsim.events import (
    EV_BUSY, EV_HIT, EV_LOCK_ACQ, EV_LOCK_REL, EV_READ, EV_WRITE,
)
from repro.memsim.interleave import Interleaver
from repro.memsim.numa import MachineConfig, NumaMachine
from repro.memsim.stats import MachineStats

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

CONFIG = MachineConfig(n_nodes=4, l1_size=512, l1_line=16,
                       l2_size=2048, l2_line=32)


def make_trace(events):
    """A QueryTrace from plain event tuples, via the record() coalescer."""
    trace = record(iter(events))
    trace.rows = []
    return trace


def machine_snapshot(stats):
    out = {}
    for name in MachineStats.__slots__:
        value = getattr(stats, name)
        if isinstance(value, list):
            value = [list(row) if isinstance(row, list) else row
                     for row in value]
        out[name] = value
    return out


def run_kernel(traces, kernel, config=CONFIG, sanitize=False):
    machine = NumaMachine(config)
    sink = {}
    run = Interleaver(machine).run_traces(traces, sink=sink, kernel=kernel)
    if sanitize:
        machine.check_invariants()
    return {
        "machine": machine_snapshot(machine.stats),
        "cpu": [(s.busy, s.msync, list(s.mem_by_class), s.finish_time,
                 s.events) for s in run.cpu_stats],
        "sink": sink,
        "wb": [(wb.stall_cycles, wb._last_completion, list(wb.entries))
               for wb in machine.wb],
        "clock": max(s.finish_time for s in run.cpu_stats),
    }


def assert_kernels_agree(per_cpu_events, config=CONFIG):
    traces = [make_trace(evs) for evs in per_cpu_events]
    scalar = run_kernel(traces, "scalar", config)
    batched = run_kernel(traces, "batched", config, sanitize=True)
    assert batched == scalar


# -- bit-identity on hand-built boundary traces ----------------------------------


def test_single_line_reads_and_writes_identical():
    line = CONFIG.l1_line
    events = [(EV_READ, i * line, 4, 1) for i in range(64)]
    events += [(EV_WRITE, i * line, 4, 1) for i in range(64)]
    events += [(EV_READ, 0, 4, 0), (EV_BUSY, 17), (EV_HIT, 3)]
    assert_kernels_agree([events] * 4)


def test_line_crossing_accesses_identical():
    """Multi-line tuple copies take the engine's inlined per-line loops."""
    line = CONFIG.l1_line
    events = []
    for i in range(48):
        events.append((EV_READ, i * 24, 64, 1))       # crosses 4-5 lines
        events.append((EV_WRITE, i * 40 + 8, 100, 2))  # crosses ~7 lines
        events.append((EV_READ, i * line + line - 2, 4, 1))  # straddles 2
    assert_kernels_agree([events] * 4)


def test_write_buffer_pressure_identical():
    """Back-to-back stores overflow the write buffer; stalls must match."""
    events = [(EV_WRITE, i * CONFIG.l2_line, 4, 1) for i in range(256)]
    assert_kernels_agree([events] * 4)


def test_shared_lines_and_locks_identical():
    """Cross-CPU sharing, invalidations, and lock handoffs line up."""
    line = CONFIG.l1_line
    per_cpu = []
    for cpu in range(4):
        events = [(EV_BUSY, 3 + cpu)]
        for i in range(32):
            events.append((EV_READ, i * line, 4, 1))       # shared reads
            events.append((EV_WRITE, i * line, 4, 1))      # ping-pong writes
        events.append((EV_LOCK_ACQ, "latch", 4096, 5))
        events.append((EV_READ, 4096 + line, 8, 5))
        events.append((EV_LOCK_REL, "latch", 4096, 5))
        events.append((EV_HIT, 9))
        per_cpu.append(events)
    assert_kernels_agree(per_cpu)


def test_size_zero_and_tiny_accesses_identical():
    """Size-0/1 accesses at line boundaries hit the do-once line loops."""
    line = CONFIG.l1_line
    events = []
    for i in range(16):
        events.append((EV_READ, i * line, 0, 1))
        events.append((EV_WRITE, i * line, 1, 1))
        events.append((EV_READ, i * line + line - 1, 2, 1))
    assert_kernels_agree([events] * 4)


def test_gather_runs_identical():
    """A long resident-line read run engages the gather tier."""
    line = CONFIG.l1_line
    events = [(EV_READ, 0, 4, 1), (EV_READ, line, 4, 1)]
    # Re-read the two warm lines far past MIN_BATCH, busy rows mixed in.
    for i in range(4 * MIN_BATCH):
        events.append((EV_READ, (i % 2) * line, 4, 1))
        if i % 7 == 0:
            events.append((EV_BUSY, 2))
    events.append((EV_WRITE, 0, 4, 1))
    events += [(EV_READ, (i % 2) * line, 4, 1) for i in range(2 * MIN_BATCH)]
    assert_kernels_agree([events] * 4)


# -- property-based bit-identity -------------------------------------------------


def _event_strategy():
    line = CONFIG.l1_line
    addr = st.integers(0, 64) .map(lambda i: i * 8)
    size = st.sampled_from([1, 2, 4, 8, 16, 24, 64, 100])
    cls = st.integers(0, 8)
    return st.one_of(
        st.tuples(st.just(EV_READ), addr, size, cls),
        st.tuples(st.just(EV_WRITE), addr, size, cls),
        st.tuples(st.just(EV_BUSY), st.integers(1, 30)),
        st.tuples(st.just(EV_HIT), st.integers(1, 10)),
        # Matched acquire/release around a shared word: emitted as a
        # bracket below so lock protocol invariants hold by construction.
        st.tuples(st.just("LOCKED"), st.sampled_from(["a", "b"]),
                  st.integers(0, 3).map(lambda i: 2048 + i * line)),
    )


@st.composite
def _workload(draw, events_strategy=None):
    if events_strategy is None:
        events_strategy = _event_strategy()
    per_cpu = []
    for _ in range(draw(st.integers(1, 4))):
        events = []
        for ev in draw(st.lists(events_strategy, min_size=1, max_size=80)):
            if ev[0] == "LOCKED":
                _, name, addr = ev
                events.append((EV_LOCK_ACQ, name, addr, 5))
                events.append((EV_READ, addr, 4, 5))
                events.append((EV_LOCK_REL, name, addr, 5))
            else:
                events.append(ev)
        per_cpu.append(events)
    return per_cpu


@settings(max_examples=60, deadline=None)
@given(_workload())
def test_random_workloads_identical(per_cpu):
    assert_kernels_agree(per_cpu)


def _aliasing_event_strategy():
    """Events biased toward set aliasing and line-crossing spans.

    Addresses either recur across CPUs on a handful of low lines (shared
    lines that invalidate and ping-pong as soon as anyone stores) or walk
    multiples of the L1 size above them (private lines aliasing the same
    L1 sets, so fills evict resident shared lines).  Sizes include
    line-crossing spans so the batched kernel's inlined per-line loops
    are exercised too.
    """
    l1 = CONFIG.l1_size
    line = CONFIG.l1_line
    addr = st.one_of(
        st.integers(0, 15).map(lambda i: i * 8),
        st.integers(1, 6).map(lambda i: 64 + i * l1),
    )
    size = st.sampled_from([4, 8, 24, 40, 100])
    cls = st.integers(0, 8)
    return st.one_of(
        st.tuples(st.just(EV_READ), addr, size, cls),
        st.tuples(st.just(EV_WRITE), addr, size, cls),
        st.tuples(st.just(EV_BUSY), st.integers(1, 30)),
        st.tuples(st.just(EV_HIT), st.integers(1, 10)),
        st.tuples(st.just("LOCKED"), st.sampled_from(["a", "b"]),
                  st.integers(0, 3).map(lambda i: 2048 + i * line)),
    )


@settings(max_examples=60, deadline=None)
@given(_workload(_aliasing_event_strategy()))
def test_aliasing_workloads_identical(per_cpu):
    assert_kernels_agree(per_cpu)


# -- the partitioner -------------------------------------------------------------


@needs_numpy
def test_plan_tags_single_line_rows():
    line = CONFIG.l1_line
    shift = line.bit_length() - 1
    trace = make_trace([
        (EV_BUSY, 5),                        # standalone busy -> -1
        (EV_READ, 0, 4, 1),                  # single line -> tagged
        (EV_WRITE, line, 4, 1),              # single line -> tagged
        (EV_READ, line - 2, 4, 1),           # crosses two lines -> -1
        (EV_LOCK_ACQ, "l", 64, 5),           # lock -> -1
        (EV_READ, 64, 4, 5),                 # single line -> tagged
        (EV_LOCK_REL, "l", 64, 5),
    ])
    plan = trace_plan(trace, shift, 32)
    assert plan.mem_lines[0] == -1           # busy
    assert plan.mem_lines[1] == 0
    assert plan.mem_lines[2] == 1
    assert plan.mem_lines[3] == -1           # line-crossing
    assert plan.mem_lines[4] == -1           # lock acquire
    assert plan.mem_lines[5] == 64 >> shift
    assert plan.mem_lines[6] == -1           # lock release
    assert plan.n_rows == len(trace)


@needs_numpy
def test_plan_runs_break_at_writes_and_locks():
    """Writes, lock events, and line-crossing reads all end a run."""
    line = CONFIG.l1_line
    shift = line.bit_length() - 1
    reads = [(EV_READ, 0, 4, 1)] * (2 * MIN_BATCH)
    for breaker in ((EV_WRITE, 0, 4, 1),
                    (EV_LOCK_ACQ, "l", 0, 5),
                    (EV_READ, line - 2, 4, 1)):
        trace = make_trace(reads + [breaker] + reads)
        plan = trace_plan(trace, shift, 32)
        boundary = 2 * MIN_BATCH
        assert len(plan.run_starts) == 2
        assert plan.run_ends[0] <= boundary
        assert plan.run_starts[1] >= boundary
    # Busy/hit rows do NOT break a run (standalone rows ride along).
    trace = make_trace(reads + [(EV_BUSY, 5)] + reads)
    # A standalone BUSY between fusable reads is fused into the previous
    # read row, so the whole stretch stays one run.
    plan = trace_plan(trace, shift, 32)
    assert len(plan.run_starts) == 1


@needs_numpy
def test_plan_drops_short_runs():
    line = CONFIG.l1_line
    shift = line.bit_length() - 1
    chunk = [(EV_READ, 0, 4, 1)] * (MIN_BATCH - 1) + [(EV_WRITE, 0, 4, 1)]
    trace = make_trace(chunk * 6)
    plan = trace_plan(trace, shift, 32)
    assert plan.run_starts == []
    trace = make_trace([(EV_READ, 0, 4, 1)] * MIN_BATCH
                       + [(EV_WRITE, 0, 4, 1)])
    assert len(trace_plan(trace, shift, 32).run_starts) == 1


@needs_numpy
def test_plan_memoized_per_geometry():
    trace = make_trace([(EV_READ, 0, 4, 1)] * 4)
    p1 = trace_plan(trace, 4, 32)
    assert trace_plan(trace, 4, 32) is p1
    p2 = trace_plan(trace, 5, 16)
    assert p2 is not p1
    assert trace_plan(trace, 5, 16) is p2


@needs_numpy
def test_prefetch_machine_falls_back():
    machine = NumaMachine(CONFIG.replace(prefetch_data=True))
    assert machine_batch_reason(machine) == "prefetch"
    events = [(EV_READ, i * 8, 4, 1) for i in range(64)]
    traces = [make_trace(events) for _ in range(2)]
    from repro.obs.metrics import registry
    before = registry().value("interleave.kernel.fallback.prefetch")
    Interleaver(machine).run_traces(traces, kernel="batched")
    assert registry().value("interleave.kernel.fallback.prefetch") \
        == before + 1


@needs_numpy
def test_plain_machine_is_batchable():
    assert machine_batch_reason(NumaMachine(CONFIG)) is None


@needs_numpy
def test_set_associative_l1_still_batches():
    """assoc > 1 only disables the gather tier, not the batched kernel."""
    config = MachineConfig(n_nodes=2, l1_size=512, l1_line=16, l1_assoc=2,
                           l2_size=2048, l2_line=32)
    assert machine_batch_reason(NumaMachine(config)) is None
    events = [(EV_READ, (i % 24) * 16, 4, 1) for i in range(256)]
    events += [(EV_WRITE, (i % 8) * 16, 4, 1) for i in range(64)]
    traces = [make_trace(events)] * 2
    assert (run_kernel(traces, "batched", config, sanitize=True)
            == run_kernel(traces, "scalar", config))


# -- aliasing and warm machines -------------------------------------------------


def test_set_aliasing_identical():
    """Private fills aliasing the L1 set of a write-shared line, around
    another CPU's late store to that line."""
    shared = 4096
    reads = [(EV_READ, shared + (k + 1) * CONFIG.l1_size, 4, 1)
             for k in range(12)]
    per_cpu = [
        # cpu0 loads the shared line, runs past cpu1's busy stretch on a
        # non-aliasing private read, then fills private aliases of its L1
        # set while the copy is still resident.
        [(EV_READ, shared, 4, 1), (EV_READ, shared + 4096 + 16, 4, 1),
         (EV_BUSY, 60000)] + reads + reads,
        # cpu1 writes the line late (long busy first).
        [(EV_BUSY, 50000), (EV_WRITE, shared, 4, 1)],
    ]
    assert_kernels_agree(per_cpu)


def test_warm_machine_rerun_identical():
    """A second batched replay on a machine carrying the first run's
    cache and directory residue matches a scalar warm rerun."""
    line = CONFIG.l1_line
    events = [(EV_READ, i * line, 4, 1) for i in range(64)]
    events += [(EV_WRITE, i * 2 * line, 4, 1) for i in range(16)]
    m1 = NumaMachine(CONFIG)
    il1 = Interleaver(m1)
    il1.run_traces([make_trace(events) for _ in range(2)], kernel="batched")
    il1.run_traces([make_trace(events) for _ in range(2)], kernel="batched")
    m2 = NumaMachine(CONFIG)
    il2 = Interleaver(m2)
    il2.run_traces([make_trace(events) for _ in range(2)], kernel="scalar")
    il2.run_traces([make_trace(events) for _ in range(2)], kernel="scalar")
    assert machine_snapshot(m1.stats) == machine_snapshot(m2.stats)


# -- kernel selection ------------------------------------------------------------


@pytest.fixture(autouse=True)
def _restore_kernel_default():
    yield
    set_default_kernel("auto")


def test_resolve_kernel_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert resolve_kernel("scalar") == "scalar"
    set_default_kernel("scalar")
    assert resolve_kernel() == "scalar"
    assert resolve_kernel("batched") == ("batched" if HAVE_NUMPY
                                         else "scalar")
    set_default_kernel("auto")
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert resolve_kernel() == "scalar"
    monkeypatch.delenv("REPRO_KERNEL")
    assert resolve_kernel() == ("batched" if HAVE_NUMPY else "scalar")


def test_resolve_kernel_rejects_unknown(monkeypatch):
    # "horizon" names a deleted kernel: a stale request must fail loudly
    # rather than silently run another engine.
    for name in ("simd", "horizon"):
        with pytest.raises(ValueError, match="unknown replay kernel"):
            resolve_kernel(name)
        with pytest.raises(ValueError, match="unknown replay kernel"):
            set_default_kernel(name)
        monkeypatch.setenv("REPRO_KERNEL", name)
        with pytest.raises(ValueError, match="unknown replay kernel"):
            resolve_kernel()


def test_batched_without_numpy_warns_once(monkeypatch):
    monkeypatch.setattr(batch, "HAVE_NUMPY", False)
    monkeypatch.setattr(batch, "_WARNED_NO_NUMPY", False)
    with pytest.warns(RuntimeWarning, match="needs numpy"):
        assert resolve_kernel("batched") == "scalar"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolve_kernel("batched") == "scalar"


def test_run_config_kernel_roundtrip():
    config = RunConfig(kernel="scalar")
    configure_run(config)
    try:
        assert resolve_kernel() == "scalar"
        assert current_run_config().kernel == "scalar"
    finally:
        configure_run(RunConfig())


def test_run_config_rejects_bad_kernel():
    with pytest.raises(ValueError, match="unknown replay kernel"):
        configure_run(RunConfig(kernel="simd"))
