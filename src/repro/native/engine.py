"""The native execution engine: run G-Miner jobs for real.

``run_native(app, graph, config)`` executes the same tasks the
simulator models — the six legacy workloads and any compiled
:class:`~repro.plans.compiler.ExecutionPlan` — across a multiprocess
pool and returns an ordinary :class:`~repro.core.job.JobResult`:

* the seed-vertex space is cut into chunks (``native_chunk_size``)
  that the parent dispatches one at a time to whichever worker is
  idle, so a straggler chunk never serialises the pool;
* the graph (and app) is inherited at fork; pickled by
  ``multiprocessing`` under spawn.  Before spawning, the parent builds
  every vertex's kernel handle for the job's backend on the graph's
  vertex memo, so forked workers (respawns included) share one warm
  copy instead of each rebuilding its own, and a second job on the
  same graph starts warm;
* per-chunk outcomes are merged **by chunk id** — never by completion
  order — so the value, ``num_results`` and every stats entry are
  bit-identical at any worker count and under any dispatch order;
* a fault-free single-worker job runs in-process, through the
  supervisor's serial loop, with no process, pipe or shared object;
* the pool runs under the :mod:`~repro.native.supervisor`: worker
  deaths, hangs (chunk-lease deadlines) and transient chunk errors are
  retried/respawned within bounded budgets, poison chunks surface a
  structured :class:`~repro.native.supervisor.NativeChunkError`, and —
  because chunk outcomes are pure — results under every *survivable*
  fault schedule are bit-identical to the fault-free run.

Total work units are accounted exactly as the simulator does (seed
scan + per-round task charges); wall-clock time and schedule-dependent
diagnostics (pool size, crash/retry/respawn tallies)
live in ``result.native``, kept out of ``result.stats`` so stats stay
byte-comparable across runs.

Fault injection: a :class:`~repro.native.chaos.NativeFaultPlan` is the
native analogue of the simulator's ``FailurePlan`` — seeded crashes
(``os._exit``), hangs, stragglers and transient chunk errors injected
into the *actual worker processes*.  Simulated failure plans (link
faults, reboots, checkpoint recovery) are still refused: that
machinery models the paper's cluster and silently ignoring it would
make a "fault tolerance" experiment vacuously pass.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from repro import kernels
from repro.core.api import GMinerApp
from repro.core.config import GMinerConfig
from repro.core.job import JobResult, JobStatus
from repro.graph.graph import Graph
from repro.native.chaos import SIM_PLAN_REFUSED, NativeFaultPlan
from repro.native.supervisor import Supervisor
from repro.obs import MASTER_TID, ObsSession, current_collector

__all__ = [
    "default_native_workers",
    "graph_payload",
    "run_native",
    "seed_chunks",
]


def default_native_workers() -> int:
    """Default pool size: every core the host has."""
    return os.cpu_count() or 1


def graph_payload(graph: Graph) -> bytes:
    """The graph as ``multiprocessing`` pickles it for a spawned worker.

    A forked pool never builds this (workers inherit the graph); the
    size is what the spawn start method ships per worker.
    """
    return pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)


def seed_chunks(graph: Graph, chunk_size: int) -> List[List[int]]:
    """Seed vertices cut into ascending-id chunks."""
    vids = list(graph.vertices())
    return [vids[i : i + chunk_size] for i in range(0, len(vids), chunk_size)]


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    """Fork when available (cheap, no re-import); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_native(
    app: GMinerApp,
    graph: Graph,
    config: Optional[GMinerConfig] = None,
    failure_plan: Any = None,
    cancel: Any = None,
) -> JobResult:
    """Execute ``app`` on ``graph`` for real; returns a JobResult.

    ``config.native_workers`` sizes the pool (``None`` → every host
    core).  ``failure_plan`` accepts a
    :class:`~repro.native.chaos.NativeFaultPlan` (real process-level
    chaos, supervised and retried within the plan's budgets, or the
    plan fields' defaults without one); simulated ``FailurePlan``
    objects are refused.  The returned result mirrors the simulated
    one where the quantity exists natively — ``value``, ``aggregated``,
    ``num_results``, ``stats["work_units"]``/``["tasks_created"]``/
    ``["rounds_executed"]`` — and records wall-clock time plus
    schedule-dependent diagnostics (including the supervisor's
    crash/retry/respawn tallies) under ``result.native``.  Simulated
    clock/network/memory fields stay at zero: native runs have no
    simulated timeline.

    ``cancel`` is an optional ``threading.Event``-like object (anything
    with ``is_set()``); when it fires, the run stops cooperatively —
    between chunks in-process, on the next supervisor tick in the
    pool — tears the pool down through
    the supervisor's terminate+join shutdown, and raises a
    structured :class:`~repro.core.errors.JobCancelled`.  A set
    ``config.job_deadline`` bounds *wall-clock* seconds from this call
    the same cooperative way, raising
    :class:`~repro.core.errors.JobDeadlineExceeded`; either way no
    child process survives the raise.
    """
    config = config or GMinerConfig()
    fault_plan: Optional[NativeFaultPlan] = None
    if failure_plan is not None:
        if isinstance(failure_plan, NativeFaultPlan):
            failure_plan.validate()
            fault_plan = failure_plan
        else:
            raise ValueError(SIM_PLAN_REFUSED)
    num_workers = config.native_workers or default_native_workers()
    backend = config.kernel_backend

    collector = current_collector()
    obs: Optional[ObsSession] = None
    origin = time.perf_counter()
    if config.enable_obs or collector is not None:
        obs = ObsSession(
            clock=lambda: time.perf_counter() - origin,
            name=app.name,
        )

    started = time.perf_counter()
    job_started = time.monotonic()
    chunks = seed_chunks(graph, config.native_chunk_size)
    num_workers = max(1, min(num_workers, len(chunks) or 1))
    # a pool only when there is something to run in parallel, or
    # process-level faults to inject into worker processes
    pooled = bool(chunks) and (num_workers > 1 or fault_plan is not None)
    if obs is not None:
        run_span = obs.tracer.begin(
            "native.run", cat="native", tid=MASTER_TID, workers=num_workers
        )
    with kernels.use_backend(backend) if backend else nullcontext():
        # the backend the job runs under, named inside its scope
        active_backend = kernels.get_backend()
        if pooled:
            # warm once, before the fork: every worker (and respawn)
            # inherits these handles with the graph
            for vid in graph.vertices():
                graph.vertex_data(vid).neighbors_array()
        supervisor = Supervisor(
            ctx=_pool_context() if pooled else None,
            app=app,
            graph=graph,
            backend=active_backend,
            chunks=chunks,
            num_workers=num_workers,
            fault_plan=fault_plan,
            obs=obs,
            cancel=cancel,
            job_deadline=config.job_deadline,
            job_started=job_started,
        )
        if obs is not None:
            supervise_span = obs.tracer.begin(
                "native.supervise", cat="native", tid=MASTER_TID
            )
        try:
            outcomes, diag = supervisor.run()
        finally:
            if obs is not None:
                obs.tracer.finish(supervise_span)
        outcome_list = [outcomes[chunk_id] for chunk_id in range(len(chunks))]
    wall_seconds = time.perf_counter() - started

    # deterministic reduction: chunk id (ascending seed id) order, never
    # completion order — the engine's bit-identity contract
    results: List[Any] = []
    offers: List[Any] = []
    work_units = 0.0
    rounds = 0
    tasks_created = 0
    for outcome in outcome_list:
        results.extend(outcome.results)
        offers.extend(outcome.offers)
        work_units += outcome.work_units
        rounds += outcome.rounds
        tasks_created += outcome.tasks_created

    value = app.combine_results(results) if results else None
    aggregated = None
    aggregator = app.make_aggregator()
    if aggregator is not None:
        aggregated = aggregator.merge_all(offers) if offers else aggregator.initial()

    stats: Dict[str, float] = {
        "work_units": work_units,
        "tasks_created": tasks_created,
        "rounds_executed": rounds,
        "native_chunks": len(chunks),
    }
    result = JobResult(
        status=JobStatus.OK,
        app_name=app.name,
        value=value,
        aggregated=aggregated,
        num_results=len(results),
        stats=stats,
    )
    result.native = {
        "execution": "native",
        "workers": num_workers,
        "chunk_size": config.native_chunk_size,
        "wall_seconds": wall_seconds,
        "backend": active_backend,
        # always 0 (the parent dispatches every chunk);
        # benchmarks/e2e/layers.py reads the key
        "steals": 0,
        **diag,
    }
    if obs is not None:
        obs.tracer.finish(run_span)
        gauge = obs.registry.gauge
        gauge("native.wall_seconds").set(wall_seconds)
        gauge("native.workers").set(float(num_workers))
        gauge("job.tasks_created").set(float(tasks_created))
        gauge("job.work_units").set(float(work_units))
        result.obs = obs.finalize(
            end=time.perf_counter() - origin,
            meta={"app": app.name, "status": "ok", "execution": "native"},
        )
        if collector is not None:
            collector.add_run(result.obs)
    return result
