"""The native execution engine: run G-Miner jobs for real.

``run_native(app, graph, config)`` executes the same tasks the
simulator models — the six legacy workloads and any compiled
:class:`~repro.plans.compiler.ExecutionPlan` — across a multiprocess
pool and returns an ordinary :class:`~repro.core.job.JobResult`:

* the seed-vertex space is cut into chunks (``native_chunk_size``)
  that workers claim one at a time off a shared cursor (dynamic
  self-scheduling), so a straggler chunk never serialises the pool;
* the graph (and app) is inherited at fork; pickled by
  ``multiprocessing`` under spawn.  Before spawning, the parent builds
  every vertex's kernel handle for the job's backend on the graph's
  vertex memo, so forked workers (respawns included) share one warm
  copy instead of each rebuilding its own, and a second job on the
  same graph starts warm;
* per-chunk outcomes are merged **by chunk id** — never by completion
  order — so the value, ``num_results`` and every stats entry are
  bit-identical at any worker count and under any claim order;
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
from repro.core.errors import JobCancelled, JobDeadlineExceeded
from repro.core.job import JobResult, JobStatus
from repro.graph.graph import Graph
from repro.native.chaos import NativeFaultPlan
from repro.native.runtime import execute_chunk
from repro.native.supervisor import (
    DEFAULT_CHUNK_DEADLINE,
    DEFAULT_MAX_CHUNK_RETRIES,
    DEFAULT_MAX_RESPAWNS,
    SUPERVISION_TALLIES,
    Supervisor,
)
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
    workers: Optional[int] = None,
    cancel: Any = None,
) -> JobResult:
    """Execute ``app`` on ``graph`` for real; returns a JobResult.

    ``workers`` overrides ``config.native_workers`` (``None`` → every
    host core).  ``failure_plan`` accepts a
    :class:`~repro.native.chaos.NativeFaultPlan` (real process-level
    chaos, supervised and retried); simulated ``FailurePlan`` objects
    are refused.  The returned result mirrors the simulated one where
    the quantity exists natively — ``value``, ``aggregated``,
    ``num_results``, ``stats["work_units"]``/``["tasks_created"]``/
    ``["rounds_executed"]`` — and records wall-clock time plus
    schedule-dependent diagnostics (including the supervisor's
    crash/retry/respawn tallies) under ``result.native``.  Simulated
    clock/network/memory fields stay at zero: native runs have no
    simulated timeline.

    ``cancel`` is an optional ``threading.Event``-like object (anything
    with ``is_set()``); when it fires, the run stops cooperatively —
    between chunks on the single-process fast path, on the next
    supervisor tick on the pooled path — tears the pool down through
    the supervisor's terminate+join+drain shutdown, and raises a
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
            raise ValueError(
                "native execution cannot run a simulated failure_plan: "
                "link faults, reboots and checkpoint recovery live in the "
                "simulated cluster — use execution='sim' for those chaos "
                "runs, or a repro.native.NativeFaultPlan to inject real "
                "process-level faults (crashes, hangs, transient chunk "
                "errors) into the native pool"
            )
    num_workers = workers or config.native_workers or default_native_workers()
    backend = config.kernel_backend
    chunk_deadline = (
        config.native_chunk_deadline
        if config.native_chunk_deadline is not None
        else DEFAULT_CHUNK_DEADLINE
    )
    max_chunk_retries = (
        config.native_max_chunk_retries
        if config.native_max_chunk_retries is not None
        else DEFAULT_MAX_CHUNK_RETRIES
    )
    max_respawns = (
        config.native_max_respawns
        if config.native_max_respawns is not None
        else DEFAULT_MAX_RESPAWNS
    )

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
    job_deadline = config.job_deadline

    def check_cooperative() -> None:
        # cancellation/deadline checkpoints for the fast path: between
        # chunks, never mid-chunk (chunk outcomes stay pure)
        if cancel is not None and cancel.is_set():
            raise JobCancelled(app.name)
        if (
            job_deadline is not None
            and time.monotonic() - job_started >= job_deadline
        ):
            raise JobDeadlineExceeded(
                app.name,
                job_deadline,
                elapsed=time.monotonic() - job_started,
                clock="wall-clock",
            )

    chunks = seed_chunks(graph, config.native_chunk_size)
    num_workers = max(1, min(num_workers, len(chunks) or 1))
    diag: Dict[str, int] = dict.fromkeys(SUPERVISION_TALLIES, 0)
    if obs is not None:
        run_span = obs.tracer.begin(
            "native.run", cat="native", tid=MASTER_TID, workers=num_workers
        )
    with kernels.use_backend(backend) if backend else nullcontext():
        # the backend the job runs under, named inside its scope
        active_backend = kernels.get_backend()
        if (num_workers == 1 and fault_plan is None) or not chunks:
            # fault-free single-process fast path: no pool, no supervision
            # overhead — and the degenerate zero-chunk graph short-circuits
            # here too (nothing to supervise)
            outcome_list = []
            for chunk_id, chunk in enumerate(chunks):
                check_cooperative()
                outcome_list.append(execute_chunk(app, graph, chunk_id, chunk))
        else:
            # warm once, before the fork: every worker (and respawn)
            # inherits these handles with the graph
            for vid in graph.vertices():
                graph.vertex_data(vid).neighbors_array()
            supervisor = Supervisor(
                ctx=_pool_context(),
                app=app,
                graph=graph,
                backend=active_backend,
                chunks=chunks,
                num_workers=num_workers,
                fault_plan=fault_plan,
                chunk_deadline=chunk_deadline,
                max_chunk_retries=max_chunk_retries,
                max_respawns=max_respawns,
                obs=obs,
                cancel=cancel,
                job_deadline=job_deadline,
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
        # always 0 (one shared cursor); benchmarks/e2e/layers.py reads the key
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
