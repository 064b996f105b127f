"""Crash-safe supervision for the native process pool.

The simulator earned its fault-tolerance story in PR 3 (heartbeats,
incarnations, recovery); this module gives the *real* execution engine
the same contract.  :class:`Supervisor` runs the chunk pool under a
master-side control loop that survives everything short of the parent
process dying:

* **liveness** — worker processes are watched by exitcode; a death
  (OOM kill, segfault, injected ``os._exit``) forfeits the chunk the
  worker held and triggers a bounded respawn;
* **chunk leases** — the parent stamps every attempt it dispatches; a
  worker that holds a chunk past the plan's ``chunk_deadline`` is presumed
  hung, terminated, and its chunk forfeited;
* **retry with reassignment** — forfeited and transiently-failed
  chunks are dispatched again, to any idle worker, with an explicit
  attempt number; because chunk outcomes are pure functions of the
  chunk's seed vertices, a retried chunk's outcome is bit-identical to
  what the first attempt would have produced, so the merged result
  never depends on the fault schedule;
* **poison quarantine** — a chunk that exhausts
  ``max_chunk_retries`` is quarantined with its per-attempt
  error log; the run then fails with a structured
  :class:`NativeChunkError` instead of hanging or dying on a bare
  traceback;
* **graceful degradation** — respawns are bounded by
  ``max_respawns``; past the budget the pool shrinks, and if it
  empties entirely the remaining chunks execute serially in-process
  (the final fallback), so ``mine()`` returns either the exact answer
  or a precise diagnosis.

The three budgets are fields of the job's
:class:`~repro.native.chaos.NativeFaultPlan`; a job without a plan runs
under that class's defaults.

Dispatch is parent-side, like the paper's master: the supervisor keeps
a ``pending`` queue of chunk ids and a ``held`` map from worker id to
``(chunk id, attempt, dispatch time)``, and sends every attempt, first
or retry, as ``("exec", chunk_id, attempt)`` down an idle worker's own
pipe.  The worker's reply frees it; a dead or hung worker forfeits
exactly its ``held`` entry.  Chunk outcomes are pure and merged by
chunk id, so the dispatch order protects no contract: a scheduling
policy is an order of ``pending``.

A job with nothing to run in parallel (one worker and no fault plan,
or no chunks at all) is built with ``ctx=None`` and runs the same
serial loop the fallback uses, with the same retries and quarantine,
and without creating any process, queue or shared object.

Every message a worker emits may be lost at an abrupt death (that is
what abrupt death means); the supervisor relies on its own ``held``
map plus exitcodes, never on a farewell message, for correctness.
Each worker has its own pipe, so a death mid-reply tears only that
worker's channel, never a lock its siblings need.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.core.errors import JobCancelled, JobDeadlineExceeded
from repro.native.chaos import FAULT_EXIT_CODE, HANG_FOREVER, NativeFaultPlan
from repro.native.runtime import ChunkOutcome, execute_chunk

#: The supervision tallies: ``Supervisor.diag``'s keys, and with them
#: ``result.native``'s.  Each is also a ``native.<name>`` obs counter.
SUPERVISION_TALLIES = (
    "crashes",
    "hangs",
    "retries",
    "respawns",
    "chunk_errors",
    "leases_expired",
    "fallback_chunks",
)

#: Supervisor poll period: the latency of death/lease detection.
#: Purely a control-plane cadence — results never depend on it.
_TICK = 0.05
#: Grace period for workers to drain and exit after a stop command.
_STOP_GRACE = 5.0


@dataclass
class ChunkFailure:
    """One quarantined chunk: its id, how often it was tried, and the
    per-attempt error descriptions (tracebacks for real exceptions)."""

    chunk_id: int
    attempts: int
    errors: List[str] = field(default_factory=list)


class NativeChunkError(RuntimeError):
    """A native run gave up on one or more chunks.

    Raised — after the pool is fully torn down — when chunks exhausted
    their retry budget.  ``failures`` carries one :class:`ChunkFailure`
    per quarantined chunk, sorted by chunk id, so callers (and CI
    logs) see exactly which seed ranges failed, how many attempts were
    made, and every per-attempt error, instead of a hang or a bare
    worker traceback.
    """

    def __init__(self, failures: Sequence[ChunkFailure]) -> None:
        self.failures = sorted(failures, key=lambda f: f.chunk_id)
        lines = [
            f"native run gave up on {len(self.failures)} chunk(s) after "
            "exhausting their retry budget "
            "(see .failures for per-attempt details):"
        ]
        for failure in self.failures:
            last = failure.errors[-1] if failure.errors else "<no error recorded>"
            first_line = last.strip().splitlines()[-1] if last.strip() else last
            lines.append(
                f"  chunk {failure.chunk_id}: {failure.attempts} failed "
                f"attempt(s); last error: {first_line}"
            )
        super().__init__("\n".join(lines))




# ----------------------------------------------------------------------
# the pool worker
# ----------------------------------------------------------------------


def _worker_main(
    wid: int,
    app,
    graph,
    backend: str,
    chunks: List[List[int]],
    fault_plan: Optional[NativeFaultPlan],
    conn,
) -> None:
    """Pool-worker loop: announce ``ready``, then run each ``("exec",
    chunk_id, attempt)`` off the worker's own pipe until told to stop.

    Every reply — ``chunk`` or ``chunk-error`` — frees the worker for
    the next dispatch.  Injected faults fire at chunk pickup
    (crash/hang/slow, keyed by the worker's pickup count) or as
    whole-chunk transient errors, never mid-chunk: a chunk either
    ships its complete deterministic outcome or nothing.

    The pipe is this worker's alone: no lock is shared with its
    siblings, so a worker killed mid-reply can tear only its own
    channel.  ``app`` and ``graph`` arrive as process arguments:
    inherited from the parent at fork — together with the kernel
    handles the parent warmed on the graph — and pickled by
    ``multiprocessing`` under spawn.
    """
    try:
        with kernels.use_backend(backend):
            # the lease clock starts at dispatch, so dispatch only to a
            # worker that is up (spawn start-up would eat the deadline)
            conn.send(("ready",))
            for claim_index, (_, chunk_id, attempt) in enumerate(
                iter(conn.recv, ("stop",))
            ):
                error = None
                if fault_plan is not None:
                    delay = fault_plan.slow_delay(wid)
                    if delay > 0.0:
                        time.sleep(delay)
                    action = fault_plan.claim_action(wid, claim_index)
                    if action is not None:
                        kind, duration = action
                        if kind == "crash":
                            # abrupt: no atexit, no flush — like a real
                            # OOM kill
                            os._exit(FAULT_EXIT_CODE)
                        time.sleep(duration if duration is not None else HANG_FOREVER)
                    error = fault_plan.chunk_failure(chunk_id, attempt)
                if error is None:
                    try:
                        outcome = execute_chunk(app, graph, chunk_id, chunks[chunk_id])
                    except Exception:
                        error = traceback.format_exc()
                    else:
                        conn.send(("chunk", outcome))
                        continue
                conn.send(("chunk-error", chunk_id, attempt, error))
    except BaseException:  # ship the traceback; never hang the parent
        try:
            conn.send(("fatal", traceback.format_exc()))
        except Exception:
            pass


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side handle for one pool process."""

    wid: int
    proc: Any
    #: The parent's end of the worker's duplex pipe.
    conn: Any
    ready: bool = False
    #: The pipe hit EOF or a torn message: the worker is dying, and the
    #: reaper charges its chunk once the exitcode shows.
    closed: bool = False


def _terminate(proc) -> None:
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


class Supervisor:
    """Master-side control loop for one supervised native run.

    Construct, then call :meth:`run` exactly once.  ``run`` returns
    ``(outcomes, diagnostics)`` — outcomes keyed by chunk id — or
    raises :class:`NativeChunkError` after full pool teardown when
    chunks were quarantined.  Any exception path (including
    ``KeyboardInterrupt``) terminates and joins every child: no orphan
    workers.  ``ctx=None`` runs every chunk in-process instead of in a
    pool of ``num_workers``.  The supervision budgets are
    ``fault_plan``'s, or :class:`NativeFaultPlan`'s defaults without one.
    """

    def __init__(
        self,
        *,
        ctx,
        app,
        graph,
        backend: str,
        chunks: List[List[int]],
        num_workers: int,
        fault_plan: Optional[NativeFaultPlan] = None,
        obs=None,
        cancel=None,
        job_deadline: Optional[float] = None,
        job_started: Optional[float] = None,
    ) -> None:
        self.ctx = ctx
        self.app = app
        self.graph = graph
        self.backend = backend
        self.chunks = chunks
        self.num_workers = num_workers
        self.fault_plan = fault_plan
        budgets = fault_plan if fault_plan is not None else NativeFaultPlan()
        self.chunk_deadline = budgets.chunk_deadline
        self.max_chunk_retries = budgets.max_chunk_retries
        self.max_respawns = budgets.max_respawns
        self.obs = obs
        #: Cooperative cancellation: an ``is_set()``-bearing object
        #: (typically ``threading.Event``) checked every control-loop
        #: tick and before every in-process chunk; raising out of the
        #: loop routes through ``run()``'s ``except BaseException`` arm,
        #: i.e. the same terminate+join teardown every other abnormal
        #: exit takes.
        self.cancel = cancel
        #: Wall-clock job deadline in seconds since ``job_started``
        #: (a ``time.monotonic()`` stamp), checked on the same cadence.
        self.job_deadline = job_deadline
        self.job_started = job_started if job_started is not None else time.monotonic()

        #: Chunk ids awaiting dispatch, first attempts then retries.
        self.pending: Deque[int] = deque(range(len(chunks)))
        #: worker id → (chunk id, attempt, dispatch time): the leases.
        self.held: Dict[int, Tuple[int, int, float]] = {}
        self.workers: Dict[int, _Worker] = {}
        self.exited: List[Any] = []
        self.next_wid = 0

        self.outcomes: Dict[int, ChunkOutcome] = {}
        self.attempts: List[int] = [0] * len(chunks)
        self.errors: Dict[int, List[str]] = {}
        self.quarantined: Set[int] = set()

        self.diag: Dict[str, int] = dict.fromkeys(SUPERVISION_TALLIES, 0)
        # eagerly created, so even fault-free snapshots carry explicit
        # zeros for the supervision quantities
        self._obs_counters = (
            {key: obs.registry.counter(f"native.{key}") for key in SUPERVISION_TALLIES}
            if obs is not None
            else None
        )

    # -- bookkeeping ---------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.diag[key] += n
        if self._obs_counters is not None:
            self._obs_counters[key].inc(n)

    def _remaining(self) -> int:
        return len(self.chunks) - len(self.outcomes) - len(self.quarantined)

    def _done(self, chunk_id: int) -> bool:
        return chunk_id in self.outcomes or chunk_id in self.quarantined

    def _started(self, chunk_id: int, attempt: int, tid: int) -> None:
        """Tally an attempt beyond a chunk's first as a retry."""
        if attempt == 0:
            return
        self._count("retries")
        if self.obs is not None:
            self.obs.tracer.instant(
                "native.retry", cat="native", tid=tid, chunk=chunk_id, attempt=attempt
            )

    # -- lifecycle -----------------------------------------------------

    def run(self) -> Tuple[Dict[int, ChunkOutcome], Dict[str, int]]:
        try:
            if self.ctx is not None:
                for _ in range(self.num_workers):
                    self._spawn()
                self._loop()
            # without a pool, every chunk; after one, only what is left
            # once the pool is gone and the respawn budget is spent
            self._run_serial()
        except BaseException:
            self._shutdown(graceful=False)
            raise
        self._shutdown(graceful=True)
        if self.quarantined:
            raise NativeChunkError(
                [
                    ChunkFailure(
                        chunk_id=chunk_id,
                        attempts=self.attempts[chunk_id],
                        errors=list(self.errors.get(chunk_id, ())),
                    )
                    for chunk_id in sorted(self.quarantined)
                ]
            )
        return self.outcomes, self.diag

    def _spawn(self) -> _Worker:
        wid = self.next_wid
        self.next_wid += 1
        conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                wid,
                self.app,
                self.graph,
                self.backend,
                self.chunks,
                self.fault_plan,
                child_conn,
            ),
            daemon=True,
        )
        worker = _Worker(wid=wid, proc=proc, conn=conn)
        self.workers[wid] = worker
        proc.start()
        child_conn.close()
        return worker

    def _check_cancelled(self) -> None:
        """Raise if the caller cancelled the run or its deadline passed.

        Called once per control-loop tick and between in-process
        chunks; both raise sites sit inside ``run()``'s ``except
        BaseException`` scope, so the pool is fully torn down (no
        orphan children) before the error escapes.
        """
        if self.cancel is not None and self.cancel.is_set():
            raise JobCancelled(getattr(self.app, "name", "native job"))
        if self.job_deadline is not None:
            elapsed = time.monotonic() - self.job_started
            if elapsed >= self.job_deadline:
                raise JobDeadlineExceeded(
                    getattr(self.app, "name", "native job"),
                    self.job_deadline,
                    elapsed=elapsed,
                    clock="wall-clock",
                )

    def _loop(self) -> None:
        while self._remaining() > 0 and self.workers:
            self._check_cancelled()
            listening = {
                w.conn: w for w in self.workers.values() if not w.closed
            }
            if listening:
                for conn in wait(list(listening), timeout=_TICK):
                    self._receive(listening[conn])
            else:
                time.sleep(_TICK)
            self._reap_dead()
            self._expire_leases()
            self._dispatch()

    # -- message handling ----------------------------------------------

    def _receive(self, worker: _Worker) -> None:
        """Handle every message waiting on one worker's pipe."""
        while worker.wid in self.workers and worker.conn.poll():
            try:
                message = worker.conn.recv()
            except Exception:  # EOF or a reply torn by an abrupt death
                worker.closed = True
                return
            self._on_message(worker.wid, message)

    def _on_message(self, wid: int, message: Tuple) -> None:
        kind = message[0]
        if kind == "ready":
            self.workers[wid].ready = True
        elif kind == "chunk":
            # only the holder can deliver a chunk, and a reaped worker's
            # pipe is never read again: each chunk completes once
            del self.held[wid]
            self.outcomes[message[1].chunk_id] = message[1]
        elif kind == "chunk-error":
            _, chunk_id, attempt, error = message
            del self.held[wid]
            self._count("chunk_errors")
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.chunk_error",
                    cat="native",
                    tid=wid,
                    chunk=chunk_id,
                    attempt=attempt,
                )
            self._record_failure(
                chunk_id, f"attempt {attempt} on worker {wid}: {error}"
            )
        elif kind == "fatal":
            self._worker_died(
                wid, f"worker {wid} internal error:\n{message[1]}", kind="crash"
            )

    def _record_failure(self, chunk_id: int, description: str) -> None:
        """One failed attempt of ``chunk_id``: log, then requeue or
        quarantine."""
        self.attempts[chunk_id] += 1
        self.errors.setdefault(chunk_id, []).append(description)
        if self.attempts[chunk_id] > self.max_chunk_retries:
            self.quarantined.add(chunk_id)
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.quarantine",
                    cat="native",
                    tid=-1,
                    chunk=chunk_id,
                    attempts=self.attempts[chunk_id],
                )
        else:
            self.pending.append(chunk_id)

    # -- liveness ------------------------------------------------------

    def _reap_dead(self) -> None:
        for wid, worker in list(self.workers.items()):
            if not worker.proc.is_alive():
                code = worker.proc.exitcode
                label = (
                    "injected crash"
                    if code == FAULT_EXIT_CODE
                    else f"exitcode {code}"
                )
                self._worker_died(
                    wid, f"worker {wid} died ({label})", kind="crash"
                )

    def _expire_leases(self) -> None:
        now = time.monotonic()
        for wid, (chunk_id, _, dispatched) in list(self.held.items()):
            if now - dispatched <= self.chunk_deadline:
                continue
            self._count("leases_expired")
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.lease_expired", cat="native", tid=wid, chunk=chunk_id
                )
            self._worker_died(
                wid,
                f"worker {wid} forfeited its lease "
                f"(chunk held past the {self.chunk_deadline}s deadline)",
                kind="hang",
            )

    def _worker_died(self, wid: int, reason: str, kind: str) -> None:
        """A worker is gone (or being put down): forfeit its chunk,
        count the event, and respawn a replacement if budget allows."""
        worker = self.workers.pop(wid, None)
        if worker is None:
            return
        if worker.proc.is_alive():
            _terminate(worker.proc)
        self.exited.append(worker.proc)
        self._count("crashes" if kind == "crash" else "hangs")
        if self.obs is not None:
            self.obs.tracer.instant(
                f"native.worker_{'crash' if kind == 'crash' else 'hang'}",
                cat="native",
                tid=wid,
                reason=reason.splitlines()[0],
            )
        worker.conn.close()
        held = self.held.pop(wid, None)
        if held is not None:
            self._record_failure(held[0], f"attempt forfeited: {reason}")
        if self._remaining() > 0 and self.diag["respawns"] < self.max_respawns:
            self._count("respawns")
            replacement = self._spawn()
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.respawn", cat="native", tid=replacement.wid
                )

    # -- dispatch ------------------------------------------------------

    def _dispatch(self) -> None:
        """Hand pending chunks to ready, idle workers, lowest id first."""
        for worker in list(self.workers.values()):
            if not self.pending:
                return
            if not worker.ready or worker.closed or worker.wid in self.held:
                continue
            chunk_id = self.pending.popleft()
            attempt = self.attempts[chunk_id]
            self.held[worker.wid] = (chunk_id, attempt, time.monotonic())
            try:
                worker.conn.send(("exec", chunk_id, attempt))
            except OSError:
                # died since the last reap (say, OOM-killed while idle):
                # the reaper forfeits the chunk like any held one
                worker.closed = True
            self._started(chunk_id, attempt, worker.wid)

    # -- the serial loop -----------------------------------------------

    def _run_serial(self) -> None:
        """Execute every unfinished chunk in-process, in chunk id order.

        The whole run without a pool; the final fallback after one
        (each chunk it then runs counts in ``fallback_chunks``).
        Process-level faults (crash/hang/slow) model *worker* failures
        and cannot apply here — the supervisor's own process is the
        reliability anchor, like the simulator's master — but injected
        transient chunk errors still fire, so attempts, retries and
        quarantine work exactly as in the pool: a poison chunk is
        quarantined, never looped forever.
        """
        with kernels.use_backend(self.backend):
            for chunk_id in range(len(self.chunks)):
                if self._done(chunk_id):
                    continue
                self._check_cancelled()
                if self.ctx is not None:
                    self._count("fallback_chunks")
                while not self._done(chunk_id):
                    attempt = self.attempts[chunk_id]
                    self._started(chunk_id, attempt, -1)
                    failure = (
                        self.fault_plan.chunk_failure(chunk_id, attempt)
                        if self.fault_plan is not None
                        else None
                    )
                    if failure is None:
                        try:
                            self.outcomes[chunk_id] = execute_chunk(
                                self.app,
                                self.graph,
                                chunk_id,
                                self.chunks[chunk_id],
                            )
                            break
                        except Exception:
                            failure = traceback.format_exc()
                    self._record_failure(
                        chunk_id, f"attempt {attempt} in-process: {failure}"
                    )

    # -- teardown ------------------------------------------------------

    def _shutdown(self, graceful: bool) -> None:
        """Stop or terminate and join every child, then close the pipes.

        ``graceful=True`` (normal completion) lets idle workers exit
        via the stop command; ``graceful=False`` (interrupt or internal
        error) terminates immediately.  Either way no child survives
        this method — the no-orphans contract the shutdown-hygiene
        tests assert.
        """
        if graceful:
            for worker in self.workers.values():
                try:
                    worker.conn.send(("stop",))
                except Exception:
                    pass
        deadline = time.monotonic() + (_STOP_GRACE if graceful else 0.0)
        for worker in list(self.workers.values()):
            worker.proc.join(max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                _terminate(worker.proc)
            worker.conn.close()
        for proc in self.exited:
            proc.join(1.0)
        self.workers.clear()
