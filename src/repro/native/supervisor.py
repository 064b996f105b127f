"""Crash-safe supervision for the native process pool.

The simulator earned its fault-tolerance story in PR 3 (heartbeats,
incarnations, recovery); this module gives the *real* execution engine
the same contract.  :class:`Supervisor` runs the chunk pool under a
master-side control loop that survives everything short of the parent
process dying:

* **liveness** — worker processes are watched by exitcode; a death
  (OOM kill, segfault, injected ``os._exit``) forfeits every chunk the
  worker held and triggers a bounded respawn;
* **chunk leases** — each claimed chunk carries a wall-clock lease in
  shared memory, written under the claim lock; a worker that holds a
  chunk past ``native_chunk_deadline`` is presumed hung, terminated,
  and its chunks forfeited;
* **retry with reassignment** — forfeited and transiently-failed
  chunks are re-dispatched to idle workers with an explicit attempt
  number; because chunk outcomes are pure functions of the chunk's
  seed vertices, a retried chunk's outcome is bit-identical to what
  the first attempt would have produced, so the merged result never
  depends on the fault schedule;
* **poison quarantine** — a chunk that exhausts
  ``native_max_chunk_retries`` is quarantined with its per-attempt
  error log; the run then fails with a structured
  :class:`NativeChunkError` instead of hanging or dying on a bare
  traceback;
* **graceful degradation** — respawns are bounded by
  ``native_max_respawns``; past the budget the pool shrinks, and if it
  empties entirely the remaining chunks execute serially in-process
  (the final fallback), so ``mine()`` returns either the exact answer
  or a precise diagnosis.

Workers self-schedule off one shared chunk cursor.  Chunk outcomes are
pure and merged by chunk id, so the claim order protects no contract;
the cursor outlives any individual worker, so a surviving or respawned
worker claims the chunks a dead one never started, and only
*claimed-but-unfinished* chunks need the supervisor's retry path.  The
lease follows the claim: a chunk is leased to whichever worker took it,
so that worker's failure charges (and retries) the chunk exactly once.

Every message a worker emits may be lost at an abrupt death (that is
what abrupt death means); the supervisor relies on shared memory plus
exitcodes, never on a farewell message, for correctness.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.core.errors import JobCancelled, JobDeadlineExceeded
from repro.native.chaos import FAULT_EXIT_CODE, HANG_FOREVER, NativeFaultPlan
from repro.native.runtime import ChunkOutcome, execute_chunk

#: Engine defaults for the supervision knobs, used when the
#: corresponding ``GMinerConfig`` field is ``None``.
DEFAULT_CHUNK_DEADLINE = 60.0
DEFAULT_MAX_CHUNK_RETRIES = 2
DEFAULT_MAX_RESPAWNS = 2

#: The supervision tallies: ``Supervisor.diag``'s keys, and with them
#: ``result.native``'s.  Each but ``fallback_chunks`` is also a
#: ``native.<name>`` obs counter.
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


def _claim(next_chunk, num_chunks: int, holders, leases, wid: int) -> Optional[int]:
    """Take the next unclaimed chunk id and record the lease, all under
    one lock.

    The lease — holder id plus a monotonic claim timestamp — is written
    inside the same critical section that advances the cursor, so the
    supervisor can never observe a claimed chunk without its lease.
    """
    with next_chunk.get_lock():
        chunk_id = next_chunk.value
        if chunk_id >= num_chunks:
            return None
        next_chunk.value = chunk_id + 1
        holders[chunk_id] = wid
        leases[chunk_id] = time.monotonic()
        return chunk_id


def _worker_main(
    wid: int,
    app,
    graph,
    backend: str,
    chunks: List[List[int]],
    next_chunk,
    holders,
    leases,
    fault_plan: Optional[NativeFaultPlan],
    feed,
    out_queue,
) -> None:
    """Pool-worker loop: self-schedule until dry, then serve retries.

    Phase 1 claims chunks off the shared cursor.  Once the cursor runs
    past the last chunk the worker announces ``idle`` and blocks on its
    feed for supervisor-dispatched retries (``("exec", chunk_id,
    attempt)``) until told to stop.  Respawned workers run the same
    loop — phase 1 lets them pick up chunks a dead sibling never
    started.

    Injected faults fire at chunk pickup (crash/hang/slow) or as
    whole-chunk transient errors, never mid-chunk: a chunk either
    ships its complete deterministic outcome or nothing.

    ``app`` and ``graph`` arrive as process arguments: inherited from
    the parent at fork — together with the kernel handles the parent
    warmed on the graph — and pickled by ``multiprocessing`` under
    spawn.
    """
    try:
        claim_index = 0

        def execute_one(chunk_id: int, attempt: int) -> None:
            nonlocal claim_index
            my_claim = claim_index
            claim_index += 1
            if fault_plan is not None:
                delay = fault_plan.slow_delay(wid)
                if delay > 0.0:
                    time.sleep(delay)
                action = fault_plan.claim_action(wid, my_claim)
                if action is not None:
                    kind, duration = action
                    if kind == "crash":
                        # abrupt: no atexit, no queue flush — buffered
                        # messages die with us, like a real OOM kill
                        os._exit(FAULT_EXIT_CODE)
                    time.sleep(duration if duration is not None else HANG_FOREVER)
                failure = fault_plan.chunk_failure(chunk_id, attempt)
                if failure is not None:
                    out_queue.put(("chunk-error", wid, chunk_id, attempt, failure))
                    return
            try:
                outcome = execute_chunk(app, graph, chunk_id, chunks[chunk_id])
            except Exception:
                out_queue.put(
                    ("chunk-error", wid, chunk_id, attempt, traceback.format_exc())
                )
                return
            out_queue.put(("chunk", outcome))

        with kernels.use_backend(backend):
            while True:
                chunk_id = _claim(next_chunk, len(chunks), holders, leases, wid)
                if chunk_id is None:
                    break
                execute_one(chunk_id, 0)
            out_queue.put(("idle", wid))
            while True:
                command = feed.get()
                if command[0] == "stop":
                    break
                _, chunk_id, attempt = command
                with next_chunk.get_lock():
                    # refresh the lease at execution start: dispatch
                    # latency must not eat into the chunk's deadline
                    leases[chunk_id] = time.monotonic()
                execute_one(chunk_id, attempt)
                out_queue.put(("idle", wid))
        out_queue.put(("done", wid))
    except BaseException:  # ship the traceback; never hang the parent
        try:
            out_queue.put(("fatal", wid, traceback.format_exc()))
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
    feed: Any
    idle: bool = False
    stopping: bool = False


class Supervisor:
    """Master-side control loop for one supervised native run.

    Construct, then call :meth:`run` exactly once.  ``run`` returns
    ``(outcomes, diagnostics)`` — outcomes keyed by chunk id, merged
    first-result-wins (chunk outcomes are pure, so duplicates are
    byte-identical) — or raises :class:`NativeChunkError` after full
    pool teardown when chunks were quarantined.  Any exception path
    (including ``KeyboardInterrupt``) terminates and joins every child
    and drains the queues: no orphan workers, no leaked feeder
    threads.
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
        chunk_deadline: Optional[float] = DEFAULT_CHUNK_DEADLINE,
        max_chunk_retries: int = DEFAULT_MAX_CHUNK_RETRIES,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
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
        self.chunk_deadline = chunk_deadline
        self.max_chunk_retries = max_chunk_retries
        self.max_respawns = max_respawns
        self.obs = obs
        #: Cooperative cancellation: an ``is_set()``-bearing object
        #: (typically ``threading.Event``) checked every control-loop
        #: tick; raising out of the loop routes through ``run()``'s
        #: ``except BaseException`` arm, i.e. the same terminate+join+
        #: drain teardown every other abnormal exit takes.
        self.cancel = cancel
        #: Wall-clock job deadline in seconds since ``job_started``
        #: (a ``time.monotonic()`` stamp), checked on the same cadence.
        self.job_deadline = job_deadline
        self.job_started = job_started if job_started is not None else time.monotonic()

        n = len(chunks)
        #: The shared cursor: id of the next chunk nobody has claimed.
        self.next_chunk = ctx.Value("l", 0, lock=True)
        self.lock = self.next_chunk.get_lock()
        self.holders = ctx.Array("l", [-1] * max(n, 1), lock=False)
        self.leases = ctx.Array("d", [0.0] * max(n, 1), lock=False)
        self.out_queue = ctx.Queue()

        self.workers: Dict[int, _Worker] = {}
        self.exited: List[Any] = []
        self.next_wid = 0

        self.outcomes: Dict[int, ChunkOutcome] = {}
        self.attempts: List[int] = [0] * n
        self.errors: Dict[int, List[str]] = {}
        self.retry_q: Deque[int] = deque()
        self.quarantined: Set[int] = set()

        self.diag: Dict[str, int] = dict.fromkeys(SUPERVISION_TALLIES, 0)
        if obs is not None:
            # eagerly create the counters so even fault-free snapshots
            # carry explicit zeros for the supervision quantities
            self._obs_counters = {
                key: obs.registry.counter(f"native.{key}")
                for key in SUPERVISION_TALLIES
                if key != "fallback_chunks"
            }
        else:
            self._obs_counters = None

    # -- bookkeeping ---------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.diag[key] += n
        if self._obs_counters is not None and key in self._obs_counters:
            self._obs_counters[key].inc(n)

    def _remaining(self) -> int:
        return len(self.chunks) - len(self.outcomes) - len(self.quarantined)

    def _done(self, chunk_id: int) -> bool:
        return chunk_id in self.outcomes or chunk_id in self.quarantined

    # -- lifecycle -----------------------------------------------------

    def run(self) -> Tuple[Dict[int, ChunkOutcome], Dict[str, int]]:
        try:
            for _ in range(self.num_workers):
                self._spawn()
            self._loop()
            if self._remaining() > 0 and not self.workers:
                # the pool is gone and the respawn budget is spent:
                # finish what is left in-process, serially
                self._serial_fallback()
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
        feed = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                wid,
                self.app,
                self.graph,
                self.backend,
                self.chunks,
                self.next_chunk,
                self.holders,
                self.leases,
                self.fault_plan,
                feed,
                self.out_queue,
            ),
            daemon=True,
        )
        worker = _Worker(wid=wid, proc=proc, feed=feed)
        self.workers[wid] = worker
        proc.start()
        return worker

    def _check_cancelled(self) -> None:
        """Raise if the caller cancelled the run or its deadline passed.

        Called once per control-loop tick and between serial-fallback
        chunks; both raise sites sit inside ``run()``'s ``except
        BaseException`` scope, so the pool is fully torn down (no
        orphan children, queues drained) before the error escapes.
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
            try:
                message = self.out_queue.get(timeout=_TICK)
            except queue_mod.Empty:
                message = None
            if message is not None:
                self._on_message(message)
                while True:
                    try:
                        self._on_message(self.out_queue.get_nowait())
                    except queue_mod.Empty:
                        break
            self._reap_dead()
            self._expire_leases()
            self._dispatch_retries()

    # -- message handling ----------------------------------------------

    def _on_message(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "chunk":
            outcome = message[1]
            chunk_id = outcome.chunk_id
            if chunk_id not in self.outcomes:
                # first result wins; a quarantined chunk that somehow
                # still delivered (a hung worker racing its own
                # termination) is rescued — exact answers beat diagnoses
                self.quarantined.discard(chunk_id)
                self.outcomes[chunk_id] = outcome
        elif kind == "chunk-error":
            _, wid, chunk_id, attempt, error = message
            if wid not in self.workers:
                return  # stale message from a worker already reaped
            self._count("chunk_errors")
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.chunk_error",
                    cat="native",
                    tid=wid,
                    chunk=chunk_id,
                    attempt=attempt,
                )
            if chunk_id in self.outcomes:
                return
            self._record_failure(
                chunk_id, f"attempt {attempt} on worker {wid}: {error}"
            )
        elif kind == "idle":
            worker = self.workers.get(message[1])
            if worker is not None:
                worker.idle = True
        elif kind == "done":
            worker = self.workers.pop(message[1], None)
            if worker is not None:
                self.exited.append(worker.proc)
        elif kind == "fatal":
            _, wid, tb = message
            if wid in self.workers:
                self._worker_died(
                    wid, f"worker {wid} internal error:\n{tb}", kind="crash"
                )

    def _record_failure(
        self, chunk_id: int, description: str, requeue: bool = True
    ) -> None:
        """One failed attempt of ``chunk_id``: log, then retry or
        quarantine.  The holder entry is cleared so a later worker
        death cannot double-charge the same failure."""
        with self.lock:
            self.holders[chunk_id] = -1
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
        elif requeue:
            self.retry_q.append(chunk_id)

    # -- liveness ------------------------------------------------------

    def _reap_dead(self) -> None:
        for wid, worker in list(self.workers.items()):
            if not worker.proc.is_alive() and not worker.stopping:
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
        if self.chunk_deadline is None:
            return
        now = time.monotonic()
        hung: Dict[int, List[int]] = {}
        with self.lock:
            for chunk_id in range(len(self.chunks)):
                wid = self.holders[chunk_id]
                if wid < 0 or self._done(chunk_id) or wid not in self.workers:
                    continue
                lease = self.leases[chunk_id]
                if lease > 0.0 and now - lease > self.chunk_deadline:
                    hung.setdefault(wid, []).append(chunk_id)
        for wid, chunk_ids in hung.items():
            self._count("leases_expired", len(chunk_ids))
            if self.obs is not None:
                for chunk_id in chunk_ids:
                    self.obs.tracer.instant(
                        "native.lease_expired",
                        cat="native",
                        tid=wid,
                        chunk=chunk_id,
                    )
            self._worker_died(
                wid,
                f"worker {wid} forfeited its lease "
                f"(chunk held past the {self.chunk_deadline}s deadline)",
                kind="hang",
            )

    def _worker_died(self, wid: int, reason: str, kind: str) -> None:
        """A worker is gone (or being put down): forfeit its chunks,
        count the event, and respawn a replacement if budget allows."""
        worker = self.workers.pop(wid, None)
        if worker is None:
            return
        if worker.proc.is_alive():
            self._terminate(worker.proc)
        self.exited.append(worker.proc)
        self._count("crashes" if kind == "crash" else "hangs")
        if self.obs is not None:
            self.obs.tracer.instant(
                f"native.worker_{'crash' if kind == 'crash' else 'hang'}",
                cat="native",
                tid=wid,
                reason=reason.splitlines()[0],
            )
        forfeited: List[int] = []
        with self.lock:
            for chunk_id in range(len(self.chunks)):
                if self.holders[chunk_id] == wid and not self._done(chunk_id):
                    self.holders[chunk_id] = -1
                    forfeited.append(chunk_id)
        for chunk_id in forfeited:
            self._record_failure(chunk_id, f"attempt forfeited: {reason}")
        if self._remaining() > 0 and self.diag["respawns"] < self.max_respawns:
            self._count("respawns")
            replacement = self._spawn()
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.respawn", cat="native", tid=replacement.wid
                )

    def _terminate(self, proc) -> None:
        """Terminate a worker without ever killing a lock holder.

        The claim lock's critical sections are pure memory operations,
        so holding it here is momentary — but killing a process that
        owns it would deadlock every survivor, hence the acquire."""
        with self.lock:
            proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
            proc.join(1.0)

    # -- retry dispatch ------------------------------------------------

    def _dispatch_retries(self) -> None:
        if not self.retry_q:
            return
        idle = sorted(
            (w for w in self.workers.values() if w.idle and not w.stopping),
            key=lambda w: w.wid,
        )
        for worker in idle:
            chunk_id = None
            while self.retry_q:
                candidate = self.retry_q.popleft()
                if not self._done(candidate):
                    chunk_id = candidate
                    break
            if chunk_id is None:
                return
            with self.lock:
                self.holders[chunk_id] = worker.wid
                self.leases[chunk_id] = time.monotonic()
            worker.idle = False
            worker.feed.put(("exec", chunk_id, self.attempts[chunk_id]))
            self._count("retries")
            if self.obs is not None:
                self.obs.tracer.instant(
                    "native.retry",
                    cat="native",
                    tid=worker.wid,
                    chunk=chunk_id,
                    attempt=self.attempts[chunk_id],
                )

    # -- the final fallback --------------------------------------------

    def _serial_fallback(self) -> None:
        """Execute every unfinished chunk in-process.

        Process-level faults (crash/hang/slow) model *worker* failures
        and cannot apply here — the supervisor's own process is the
        reliability anchor, like the simulator's master — but injected
        transient chunk errors still fire, so attempt accounting stays
        uniform and a poison chunk is still quarantined, never looped
        forever.
        """
        with kernels.use_backend(self.backend):
            for chunk_id in range(len(self.chunks)):
                if self._done(chunk_id):
                    continue
                self._check_cancelled()
                self._count("fallback_chunks")
                while not self._done(chunk_id):
                    attempt = self.attempts[chunk_id]
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
                        chunk_id,
                        f"attempt {attempt} (serial fallback): {failure}",
                        requeue=False,
                    )

    # -- teardown ------------------------------------------------------

    def _shutdown(self, graceful: bool) -> None:
        """Terminate/stop and join every child, then drain the queues.

        ``graceful=True`` (normal completion) lets idle workers exit
        via the stop command; ``graceful=False`` (interrupt or internal
        error) terminates immediately.  Either way no child survives
        this method and every queue feeder thread is released — the
        no-orphans / no-leaked-semaphores contract the shutdown-hygiene
        tests assert.
        """
        for worker in self.workers.values():
            worker.stopping = True
            if graceful:
                try:
                    worker.feed.put(("stop",))
                except Exception:
                    pass
        deadline = time.monotonic() + (_STOP_GRACE if graceful else 0.0)
        for worker in list(self.workers.values()):
            remaining = max(0.0, deadline - time.monotonic())
            worker.proc.join(remaining)
            if worker.proc.is_alive():
                self._terminate(worker.proc)
        for proc in self.exited:
            proc.join(1.0)
        # drain whatever the children left behind so the queue feeder
        # threads release their pipes (a killed writer can leave a
        # torn pickle — swallow it, the run is already decided)
        while True:
            try:
                self.out_queue.get_nowait()
            except queue_mod.Empty:
                break
            except Exception:
                break
        for worker in self.workers.values():
            worker.feed.close()
            worker.feed.cancel_join_thread()
        self.out_queue.close()
        self.out_queue.cancel_join_thread()
        self.workers.clear()
