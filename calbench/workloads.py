"""The benchmark's four workloads.

Each workload has a *set-up* step, run in a fresh process of its own
(``measure.py setup``) and timed from spawn to exit, and a list of
*operations* built afresh for every timed pass.  Every pass starts from
empty in-process caches (``clear_caches``); the cold workload also gets a
new empty trace store per pass, and the warm ones a store that this run's
own set-up filled with this commit's code, so no store is ever shared
across runs or commits.

Why each workload exists:

* ``sweep-warm`` -- figures 8-11 replayed from a filled store.  Replay is
  nearly all of the work, so a replay-kernel change shows here first.
* ``live-paper`` -- figures 6, 7, 12 and 13 on the live generator engine,
  where the database executor runs inside the simulation loop.
* ``mixed-rw-cold`` -- the update-bearing half of the mixed-rw grid from an
  empty store: scheduling, UF1/UF2 DML, recording, encoding and replay.
* ``fabric-1w`` -- figures 8 and 10 at ``tiny`` through the workers backend
  with one worker, so the sweep fabric's own overhead is a large share.

The benchmark seed picks the TPC-D database seed from :data:`DB_SEEDS`; the
expected result hashes exist for exactly those database seeds.
"""

import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Database seeds the benchmark runs on: the program's default (42) and a
#: held-out one.  ``--seed n`` selects ``DB_SEEDS[n % len(DB_SEEDS)]``.
#: 1993 is the seed of 1990-1999 whose figure 8-11 traces have, at both
#: ``small`` and ``tiny``, within about 2% of seed 42's rows, so the choice
#: of seed does not itself widen the run-to-run spread.
DB_SEEDS = (42, 1993)

#: The write-bearing update fraction of the mixed-rw grid.
UPDATE_FRAC = 0.5


def db_seed(seed):
    return DB_SEEDS[seed % len(DB_SEEDS)]


@dataclass
class Op:
    """One timed operation.  ``layer`` names the span the traced pass puts
    around it; ``expect`` is the key of its expected result hash."""

    name: str
    layer: str
    fn: Callable
    qid: Optional[str] = None
    expect: Optional[str] = None
    points: int = 0

    @property
    def key(self):
        return self.expect or self.name


# -- shared pieces ------------------------------------------------------------

def _fill_store(scale_name, seed, store):
    """Record figures 8-11's traces into ``store``; returns dbgen seconds."""
    from repro.core import TraceCache
    from repro.experiments import fig8, fig10
    from repro.tpcd.dbgen import build_database
    from repro.tpcd.scales import get_scale

    scale = get_scale(scale_name)
    t0 = time.perf_counter()
    db = build_database(sf=scale.sf, seed=seed)
    dbgen_s = time.perf_counter() - t0
    cache = TraceCache(db, scale, trace_dir=store, db_seed=seed)
    for qid in sorted(set(fig8.QUERIES) | set(fig10.QUERIES)):
        for node in range(4):
            cache.get(qid, node, node)
    return dbgen_s


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _begin_pass(**config):
    from repro.core import RunConfig, clear_caches, configure_run

    clear_caches()
    configure_run(RunConfig(**config))


def _figure_sweeps(scale):
    """``[(figure module, points, projection)]`` for figures 8-11."""
    from repro.experiments import fig8, fig9, fig10, fig11
    from repro.experiments.families import (
        cache_size_points, grouped_misses, line_size_points, time_projection,
    )

    return [
        (fig8, line_size_points(fig8.QUERIES, fig8.LINE_SIZES),
         grouped_misses),
        (fig9, line_size_points(fig9.QUERIES, fig9.LINE_SIZES),
         time_projection),
        (fig10, cache_size_points(scale, fig10.QUERIES, fig10.MULTIPLIERS),
         grouped_misses),
        (fig11, cache_size_points(scale, fig11.QUERIES, fig11.MULTIPLIERS),
         time_projection),
    ]


def _short(module):
    return module.__name__.rsplit(".", 1)[1]


def _render(parts):
    """Report op body: render each ``(module, results)`` figure report."""
    return "\n\n".join(module.report(results) for module, results in parts)


# -- sweep-warm -----------------------------------------------------------------

def _sweep_warm_setup(seed, store):
    return {"dbgen_s": _fill_store("small", seed, store)}


def _sweep_warm_ops(seed, store, outputs):
    from repro.core import run_sweep
    from repro.tpcd.scales import get_scale

    scale = get_scale("small")
    _begin_pass(scale="small", trace_dir=store)
    sweeps = _figure_sweeps(scale)
    ops = []
    for module, points, _ in sweeps:
        for p in points:
            ops.append(Op(
                name=f"{_short(module)}/{p.qid}/{p.key[1]}", layer="sweep.run",
                qid=p.qid, points=1,
                fn=lambda p=p: run_sweep([p], scale=scale, seed=seed)[p.key]))

    def report():
        parts = []
        for module, points, project in sweeps:
            results = {}
            for p in points:
                summary = outputs[f"{_short(module)}/{p.qid}/{p.key[1]}"]
                results.setdefault(p.qid, {})[p.key[1]] = project(summary)
            parts.append((module, results))
        return _render(parts)

    ops.append(Op(name="report", layer="experiments.report", fn=report))
    return ops


# -- live-paper -----------------------------------------------------------------

def _live_setup(seed, store):
    from repro.tpcd.dbgen import build_database
    from repro.tpcd.scales import get_scale

    t0 = time.perf_counter()
    build_database(sf=get_scale("small").sf, seed=seed)
    return {"dbgen_s": time.perf_counter() - t0}


def _live_ops(seed, store, outputs):
    from repro.experiments import fig6, fig7, fig12, fig13
    from repro.tpcd.dbgen import build_database
    from repro.tpcd.scales import get_scale

    _begin_pass(scale="small")
    # A database per pass, built before timing: live runs only read it.
    db = build_database(sf=get_scale("small").sf, seed=seed)
    figures = (fig6, fig7, fig12, fig13)
    ops = [Op(name=_short(m), layer="experiments.run",
              fn=lambda m=m: m.run(scale="small", db=db))
           for m in figures]
    ops.append(Op(name="report", layer="experiments.report",
                  fn=lambda: _render([(m, outputs[_short(m)])
                                      for m in figures])))
    return ops


# -- mixed-rw-cold --------------------------------------------------------------

def _mixed_specs():
    from repro.experiments import mixed_rw

    return [mixed_rw.make_mixed_rw_spec(UPDATE_FRAC, clients, cpus)
            for clients in mixed_rw.CLIENT_COUNTS
            for cpus in mixed_rw.CPU_COUNTS]


def _mixed_setup(seed, store):
    from repro.workload import build_schedule

    for spec in _mixed_specs():
        build_schedule(spec)
    return {"dbgen_s": 0.0}


def _mixed_ops(seed, store, outputs):
    from repro.core import SweepPoint, run_sweep
    from repro.workload import register_scenario, scenario_report

    store = _fresh_dir(store)
    _begin_pass(scale="small", trace_dir=store)
    specs = _mixed_specs()

    def scenario(spec):
        point = SweepPoint(key=spec.name, qid=register_scenario(spec),
                           machine=dict(spec.machine), n_procs=spec.cpus)
        return run_sweep([point], scale="small", seed=seed)[spec.name]

    def report():
        from repro.workload import scenario_qid

        return "\n\n".join(
            scenario_report({"name": s.name, "qid": scenario_qid(s),
                             "spec": s.as_dict(), "summary": outputs[s.name]})
            for s in specs)

    ops = [Op(name=s.name, layer="sweep.run", points=1,
              fn=lambda s=s: scenario(s)) for s in specs]
    ops.append(Op(name="report", layer="experiments.report", fn=report))
    return ops


# -- fabric-1w ------------------------------------------------------------------

def _fabric_setup(seed, store):
    return {"dbgen_s": _fill_store("tiny", seed, store)}


def _fabric_ops(seed, store, outputs, backend="workers"):
    """Figures 8 and 10 through one worker.  The traced run repeats them
    with ``backend="inproc"``: the fabric's overhead is the difference."""
    from repro.core import run_sweep
    from repro.tpcd.scales import get_scale

    scale = get_scale("tiny")
    sweeps = [s for s in _figure_sweeps(scale)
              if _short(s[0]) in ("fig8", "fig10")]
    _begin_pass(scale="tiny", trace_dir=store, backend=backend, workers=1)
    prefix = "" if backend == "workers" else backend + "/"
    ops = [Op(name=prefix + _short(m), expect=_short(m), layer="sweep.run",
              points=len(points),
              fn=lambda points=points: run_sweep(points, scale=scale,
                                                 seed=seed))
           for m, points, _ in sweeps]

    def report():
        parts = []
        for module, points, project in sweeps:
            results = {}
            for key, summary in outputs[prefix + _short(module)].items():
                results.setdefault(key[0], {})[key[1]] = project(summary)
            parts.append((module, results))
        return _render(parts)

    ops.append(Op(name=prefix + "report", expect="report",
                  layer="experiments.report", fn=report))
    return ops


@dataclass(frozen=True)
class Workload:
    """``setup(db_seed, store)`` runs in a set-up process and returns
    ``{"dbgen_s": seconds}``; ``ops(db_seed, store, outputs)`` prepares a
    pass (untimed) and returns its operations, which record their results
    in ``outputs`` for the report operation."""

    name: str
    setup: Callable
    ops: Callable
    #: Passes every untraced run makes at least; a short pass repeats so
    #: its median holds still.
    min_passes: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-warm", _sweep_warm_setup, _sweep_warm_ops),
        Workload("live-paper", _live_setup, _live_ops),
        Workload("mixed-rw-cold", _mixed_setup, _mixed_ops),
        Workload("fabric-1w", _fabric_setup, _fabric_ops, min_passes=5),
    )
}
