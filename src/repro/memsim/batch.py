"""Batched replay kernel: vectorized trace preprocessing and selection.

The replay dispatch loop (:meth:`Interleaver.run_traces`) retires one
Python-level iteration per trace row.  Most rows of a DSS trace are
single-line reads and writes whose entire machine interaction is local to
the issuing node unless a miss or a store reaches the directory -- and
even then the interaction is a short, fixed shape.  The batched kernel
exploits that with two tiers, both planned here and both bit-identical to
scalar dispatch:

* **The inline tier** (the workhorse).  A per-trace preprocessing pass
  computes, vectorized with numpy, the primary-cache line tag of every
  single-line read/write row and stores it as one plain column beside
  the trace's event columns (-1 marks the rows the dispatch loop must
  handle through its scalar branches: line-crossing accesses and
  lock/sync events).  The dispatch loop then retires tagged rows with
  the machine's read/write hot paths *inlined* -- no method calls, no
  re-derivation of the line tag, no per-row attribute chases (the
  hierarchy's containers are bound to locals per dispatch window).  The
  tags stay ordinary machine-word ints on purpose: packing more fields
  per row was measured slower, because Python arithmetic on >2**30
  values allocates multi-digit ints in the hot loop.
* **The gather tier**.  Runs of single-CPU reads over lines that stay
  resident (plus busy/hit rows) change no cache, directory, or
  write-buffer state at all: a whole run prefix can be retired with one
  numpy gather over the machine's L1 tag mirror and two cumulative-array
  lookups.  DSS scan traces are too miss-dense for long hit runs (the
  paper's own observation: scans stream, caches barely help), so this
  tier engages only when a trace's plan actually carries qualifying runs
  of :data:`MIN_BATCH` rows or more -- then the mirror is built and
  maintained; otherwise it costs nothing.

Kernel selection (:func:`resolve_kernel`): ``batched`` / ``scalar`` /
``auto``, from an explicit argument, the process default set by
:class:`~repro.core.run.RunConfig`, or ``REPRO_KERNEL``; ``auto`` picks
batched whenever numpy is importable.  When numpy is unavailable a
batched request degrades to the scalar path with a single warning per
process.  Machine gating (:func:`machine_batch_reason`):
prefetching machines fall back to scalar entirely (a primary-cache hit
may have to wait on a pending prefetch fill, which needs the scalar
pending-fill probe); a set-associative L1 only disables the gather tier
(LRU reordering makes hits stateful), not the inline tier.

Every dispatch boundary of the scalar engine is preserved: rows retire
one at a time in the same global-clock order (the gather tier cuts its
prefix at the first L1 miss and at the window's clock limit, exactly
where scalar dispatch would stop), so cycles, machine counters, and
per-CPU accounting are bit-identical -- asserted by ``tests/test_batch.py``
and by the trace-cache suite under ``REPRO_KERNEL=batched``.
"""

import os
import warnings

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Whether the optional ``perf`` extra (numpy) is importable.
HAVE_NUMPY = _np is not None

#: Recognized kernel names (``auto`` resolves to one of the other two).
KERNELS = ("auto", "batched", "scalar")

#: Line-tag sentinel stored in the mirror's extra slot and in the plan's
#: ``lines`` entries for busy/hit rows: the gather-and-compare hit check
#: then reports those rows as hits with no extra mask.  Distinct from the
#: empty-set tag (-1) so an empty set never "hits" a busy row.
NONMEM_LINE = -2

#: Minimum row count for a run to qualify for the gather tier, and
#: minimum remaining rows for re-entering one after a miss or a
#: clock-limit cut.  Below these, row-at-a-time dispatch is cheaper than
#: a numpy round trip.
MIN_BATCH = 24
MIN_RESUME = 8

#: Plans kept per trace: one per distinct L1 geometry, evicted FIFO.  A
#: sweep replays each trace under several geometries but visits them
#: point by point, so a tiny memo bounds the packed columns' memory
#: without re-partitioning inside a point.
PLAN_MEMO = 2

#: Process-default kernel, set by :func:`repro.core.run.configure_run`.
_DEFAULT = "auto"

_WARNED_NO_NUMPY = False


def _check_kernel(kernel):
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown replay kernel {kernel!r}: expected one of {KERNELS}")
    return kernel


def set_default_kernel(kernel):
    """Set the process-default kernel (``RunConfig.kernel`` lands here)."""
    global _DEFAULT
    # repro: allow[MP001] process-local by design; workers apply RunConfig
    _DEFAULT = _check_kernel(kernel or "auto")


def default_kernel():
    """The process-default kernel name (``auto`` until configured)."""
    return _DEFAULT


def resolve_kernel(kernel=None):
    """Resolve a kernel request to ``'batched'`` or ``'scalar'``.

    Precedence: the explicit ``kernel`` argument, then the process default
    (:func:`set_default_kernel`, i.e. ``RunConfig.kernel``), then the
    ``REPRO_KERNEL`` environment variable; a still-unresolved ``auto``
    picks ``batched`` whenever numpy is importable.  A ``batched``
    request without numpy warns once per process and degrades to
    ``scalar``.
    """
    global _WARNED_NO_NUMPY
    if kernel is None or kernel == "auto":
        kernel = _DEFAULT
    if kernel == "auto":
        kernel = _check_kernel(os.environ.get("REPRO_KERNEL") or "auto")
    if kernel == "auto":
        kernel = "batched" if HAVE_NUMPY else "scalar"
    _check_kernel(kernel)
    if kernel == "batched" and not HAVE_NUMPY:
        if not _WARNED_NO_NUMPY:
            # repro: allow[MP001] warn-once flag is per-process by design
            _WARNED_NO_NUMPY = True
            warnings.warn(
                "the batched replay kernel needs numpy (the 'perf' "
                "extra: pip install repro[perf]); falling back to the "
                "scalar kernel", RuntimeWarning, stacklevel=2)
        kernel = "scalar"
    return kernel


def machine_batch_reason(machine):
    """Why ``machine`` cannot run the batched kernel, or ``None`` if it can.

    Reasons (also the fallback metric suffixes): ``no_numpy`` (plans are
    built with numpy), ``prefetch`` (a primary-cache hit may still wait
    on a pending prefetch fill, which needs the scalar pending-fill
    probe on every hit).  A set-associative L1 is *not* a fallback
    reason: it only disables the gather tier (whose mirror requires
    stateless, direct-mapped hits; see
    :meth:`~repro.memsim.numa.NumaMachine._ensure_l1_mirror`), while the
    inline tier handles any associativity.
    """
    if not HAVE_NUMPY:
        return "no_numpy"
    if machine._prefetch_data:
        return "prefetch"
    return None


# -- L1 tag mirror ---------------------------------------------------------------


def make_l1_mirror(n_nodes, n_sets):
    """Per-node tag arrays mirroring a direct-mapped L1's contents.

    ``tags[s]`` is the line tag resident in set ``s`` (``-1`` when empty).
    Slot ``n_sets`` permanently holds :data:`NONMEM_LINE`, the always-hit
    sentinel that busy/hit plan rows index.  Returns ``None`` without
    numpy.
    """
    if not HAVE_NUMPY:
        return None
    mirror = []
    for _ in range(n_nodes):
        tags = _np.full(n_sets + 1, -1, dtype=_np.int64)
        tags[n_sets] = NONMEM_LINE
        mirror.append(tags)
    return mirror


# -- trace preprocessing ---------------------------------------------------------


class BatchPlan:
    """Precomputed batching metadata for one trace under one L1 geometry.

    ``mem_lines`` is the inline tier's per-row column: one plain-list
    integer per trace row holding the primary-cache line tag of a
    single-line read/write, or -1 for rows the dispatch loop must handle
    through its scalar branches.  ``mcost``/``mreads`` ride along from
    :func:`trace_base` (shift-independent, shared by every geometry's
    plan): the retire cost and ``l1_reads`` contribution of each
    read/write row, precomputed so the inline paths never re-derive them
    from size/inert/fused-hit columns.  ``run_starts``/``run_ends``
    are the gather tier's qualifying runs (length >= :data:`MIN_BATCH`)
    of batchable rows, as plain lists walked with a single forward
    cursor; ``sets``/``lines`` feed the mirror gather (busy/hit rows
    point at the sentinel slot and carry :data:`NONMEM_LINE`, so they
    auto-hit), and ``ccost``/``cl1r`` are whole-trace cumulative sums of
    per-row retire cost and ``l1_reads`` contribution, so any run prefix
    reduces to two array lookups.
    """

    __slots__ = ("mem_lines", "mcost", "mreads", "sets", "lines",
                 "run_starts", "run_ends", "ccost", "cl1r",
                 "batchable_rows", "n_rows")

    def __init__(self, mem_lines, mcost, mreads, sets, lines, run_starts,
                 run_ends, ccost, cl1r, batchable_rows, n_rows):
        self.mem_lines = mem_lines
        self.mcost = mcost
        self.mreads = mreads
        self.sets = sets
        self.lines = lines
        self.run_starts = run_starts
        self.run_ends = run_ends
        self.ccost = ccost
        self.cl1r = cl1r
        self.batchable_rows = batchable_rows
        self.n_rows = n_rows


def _np_column(arr, dtype):
    """Zero-copy numpy view over a stdlib ``array`` column."""
    if len(arr) == 0:
        return _np.empty(0, dtype=dtype)
    return _np.frombuffer(arr, dtype=dtype)


def trace_base(trace):
    """The shift-independent batching arrays for ``trace``, memoized on it.

    Returns ``(memread, memrw, nonmem, addr, xorspan, ccost, cl1r,
    mcost, mreads)``:

    * ``memread`` / ``memrw`` -- bool masks of EV_READ rows and of
      EV_READ-or-EV_WRITE rows;
    * ``nonmem`` -- bool mask of EV_BUSY / EV_HIT rows (batchable without
      touching memory);
    * ``addr`` -- the ``a`` column as int64 (byte address for memory
      rows, cycle or reference count for busy/hit rows);
    * ``xorspan`` -- ``addr ^ (addr + size - 1)``: an access stays within
      one line under line shift ``s`` iff ``xorspan >> s == 0`` (only
      meaningful on memory rows);
    * ``ccost`` -- cumulative retire cost per row, assuming the row hits:
      ``1 + inert`` for reads (the fused trailing busy/hit run rides
      along), the cycle count for busy/hit rows, 0 for rows the gather
      tier never touches;
    * ``cl1r`` -- cumulative ``l1_reads`` contribution per row: the word
      count plus fused-hit count for reads, the reference count for
      EV_HIT rows;
    * ``mcost`` / ``mreads`` -- plain-list per-row columns for the inline
      tier, shared by every geometry's plan: the retire cost (1 cycle
      plus fused busy cycles) and the ``l1_reads`` contribution (word
      count plus fused-hit count for reads, fused-hit count alone for
      writes) of each read/write row.  Kept as ordinary small ints so
      the dispatch loop's adds never touch numpy scalars or multi-digit
      Python ints.

    The word count follows the scalar hot paths exactly: one reference
    per 4-byte word, minimum one (``1 if size <= 4 else (size+3) >> 2``).
    """
    base = trace._batch_base
    if base is not None:
        return base
    kinds = _np_column(trace.kinds, _np.int8)
    addr = _np_column(trace.a, _np.int64)
    size = _np_column(trace.b, _np.int64)
    inert = _np_column(trace.d, _np.dtype("l"))
    hits = _np_column(trace.e, _np.dtype("l"))
    memread = kinds == 0
    memrw = memread | (kinds == 1)
    nonmem = (kinds == 2) | (kinds == 5)
    words = _np.maximum((size + 3) >> 2, 1)
    cost = _np.where(memread, 1 + inert, 0)
    cost = _np.where(nonmem, addr, cost)
    l1r = _np.where(memread, words + hits, 0)
    l1r = _np.where(kinds == 5, addr, l1r)
    ccost = _np.cumsum(cost, dtype=_np.int64)
    cl1r = _np.cumsum(l1r, dtype=_np.int64)
    xorspan = addr ^ (addr + size - 1)
    mcost = _np.where(memrw, 1 + inert, 0).tolist()
    mreads = (hits + _np.where(memread, words, 0)).tolist()
    base = (memread, memrw, nonmem, addr, xorspan, ccost, cl1r,
            mcost, mreads)
    trace._batch_base = base
    return base


def trace_plan(trace, l1_shift, n_sets):
    """The :class:`BatchPlan` for ``trace`` under one L1 geometry, memoized.

    ``None`` without numpy.  The ``mem_lines`` column tags every
    single-line (under ``l1_shift``) EV_READ/EV_WRITE row with its
    primary-cache line; everything else -- line-crossing accesses, lock
    events, busy/hit rows -- carries -1 and dispatches through the
    engine's scalar branches.  The gather tier's runs are maximal
    stretches of single-line reads plus busy/hit rows (every write, lock
    event, and line-crossing read is a boundary: writes move the write
    buffer and the directory, locks observe other processors' clocks,
    line-crossing reads probe multiple sets), kept only at
    :data:`MIN_BATCH` rows or more.
    """
    if not HAVE_NUMPY:
        return None
    key = (l1_shift, n_sets)
    plans = trace._batch_plans
    plan = plans.get(key)
    if plan is not None:
        return plan
    (memread, memrw, nonmem, addr, xorspan, ccost, cl1r,
     mcost, mreads) = trace_base(trace)
    span0 = (xorspan >> l1_shift) == 0
    line = addr >> l1_shift
    mem_lines = _np.where(memrw & span0, line, _np.int64(-1)).tolist()
    single = memread & span0
    batchable = single | nonmem
    n = len(batchable)
    flags = batchable.view(_np.int8)
    edges = _np.diff(flags, prepend=_np.int8(0), append=_np.int8(0))
    starts = _np.flatnonzero(edges == 1)
    stops = _np.flatnonzero(edges == -1)
    keep = (stops - starts) >= MIN_BATCH
    lines = _np.where(single, line, NONMEM_LINE)
    sets = _np.where(single, line & (n_sets - 1), n_sets)
    plan = BatchPlan(mem_lines, mcost, mreads, sets, lines,
                     starts[keep].tolist(), stops[keep].tolist(), ccost,
                     cl1r, int(batchable.sum()), n)
    if len(plans) >= PLAN_MEMO:
        plans.pop(next(iter(plans)))
    plans[key] = plan
    return plan


# -- observability ---------------------------------------------------------------


def kernel_stats():
    """Registry view of replay-kernel activity, for ``--time`` and tests.

    ``*_runs``/``*_seconds`` per kernel; ``batched_rows`` (rows retired
    by the gather tier), ``batched_dispatches`` (gather retire
    operations), ``inline_rows`` (rows retired by the inlined
    single-line read/write paths), ``scalar_rows`` (rows the batched
    engine dispatched through its scalar branches -- line-crossing
    accesses, busy/hit rows, lock events; contended-acquire retries are
    not rows and are not counted); ``fallbacks`` by reason (runs that
    asked for the batched kernel but ran scalar).
    """
    from repro.obs.metrics import registry

    reg = registry()
    out = {
        "batched_runs": reg.value("interleave.kernel.batched.runs"),
        "batched_seconds": reg.value("interleave.kernel.batched.seconds"),
        "scalar_runs": reg.value("interleave.kernel.scalar.runs"),
        "scalar_seconds": reg.value("interleave.kernel.scalar.seconds"),
        "batched_rows": reg.value("interleave.batch.rows"),
        "batched_dispatches": reg.value("interleave.batch.dispatches"),
        "inline_rows": reg.value("interleave.batch.inline_rows"),
        "scalar_rows": reg.value("interleave.batch.scalar_rows"),
        "fallbacks": {},
    }
    prefix = "interleave.kernel.fallback."
    for name, metric in reg.items(prefix[:-1]):
        out["fallbacks"][name[len(prefix):]] = metric.value
    return out
