"""``MiningService`` — a long-lived multi-tenant front door for mining.

One service instance accepts many jobs through the same surface as
:func:`repro.mine` (``submit(graph, pattern=|workload=, ...)``) and
multiplexes them over shared capacity:

* **admission control** — a bounded queue and per-tenant in-flight
  caps; overload is refused *at the door* with a structured
  :class:`AdmissionRejected` (reason, tenant, limit) rather than
  absorbed into unbounded queues;
* **weighted fair scheduling** — deficit round-robin over tenants in
  first-seen order, budgeted in *work units* (the simulator's own cost
  currency, read live off each job's cluster), with priority classes
  ordering admission and within-tenant dispatch;
* **two execution paths** — simulated jobs are time-sliced onto the
  service via the incremental ``begin()/advance()/complete()`` job
  protocol (each job keeps its own simulator, so per-job results stay
  bit-identical to standalone ``mine()`` — see DESIGN.md); native jobs
  are dispatched to the supervised process pool with their worker
  count clamped to the service's ``native_worker_budget``, and the
  service's virtual clock billed from their deterministic work-unit
  totals (never wall time).

The service clock is **virtual**: it advances only by simulated-time
deltas and work-unit conversions, so the same submissions against the
same :class:`ServiceConfig` produce a byte-identical ``schedule_log``
every run — the determinism contract traffic replay and the fuzzer's
``--service-axis`` lean on.

Threading: scheduling runs on whichever thread calls ``step()`` /
``run_until_idle()`` / ``result()`` / ``run_trace()`` (one driver at a
time); ``submit``/``cancel``/``poll``/``shutdown`` are safe to call
from other threads.  Cancellation is cooperative everywhere — queued
jobs die immediately, sliced simulated jobs at the next slice
boundary, native jobs via the engine's cancel event and the
supervisor's terminate+join+drain teardown (no orphan children).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.config import GMinerConfig
from repro.core.errors import JobCancelled, JobDeadlineExceeded
from repro.core.job import GMinerJob, JobResult
from repro.graph.graph import Graph
from repro.plans.api import prepare_job
from repro.service.slo import SLOReport, build_report
from repro.service.traffic import JobSpec

__all__ = [
    "AdmissionRejected",
    "JobHandle",
    "JobState",
    "MiningService",
    "ServiceConfig",
]

_PRIORITY_RANK = {"high": 0, "normal": 1, "low": 2}

#: Work units per virtual second billed for a native job: native runs
#: have no simulated clock, yet the service must still bill them
#: deterministic time.
NATIVE_VIRTUAL_RATE = 1000.0


class AdmissionRejected(RuntimeError):
    """The service refused a job at the door.

    ``reason`` is one of ``"queue-full"`` (global queue depth),
    ``"tenant-cap"`` (the tenant's in-flight limit) or
    ``"shutting-down"``.  ``limit``/``current`` quantify the breached
    bound where one exists.
    """

    def __init__(
        self,
        reason: str,
        tenant: str,
        limit: Optional[int] = None,
        current: Optional[int] = None,
    ) -> None:
        self.reason = reason
        self.tenant = tenant
        self.limit = limit
        self.current = current
        detail = f"admission rejected for tenant {tenant!r}: {reason}"
        if limit is not None:
            detail += f" (at {current}/{limit})"
        super().__init__(detail)


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEADLINE = "deadline-exceeded"


#: States a job can still leave.
_ACTIVE = (JobState.QUEUED, JobState.RUNNING)


@dataclass(frozen=True)
class JobHandle:
    """The caller's ticket for a submitted job."""

    job_id: int
    tenant: str
    priority: str
    name: str


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and fairness knobs for one service.

    ``quantum_work_units`` is the deficit-round-robin quantum: each
    time a tenant's turn comes up its deficit grows by
    ``quantum * weight`` and it may run until the deficit is spent.
    ``slice_seconds`` is how much *simulated* time a sliced job may
    advance per dispatch — small slices keep high-priority arrivals
    from sitting behind a long low-priority job (anti-inversion).
    """

    max_queue_depth: int = 64
    max_inflight_per_tenant: int = 8
    #: Jobs concurrently admitted to RUNNING (sliced together).
    max_running: int = 4
    slice_seconds: float = 0.05
    quantum_work_units: float = 50.0
    #: tenant → DRR weight; unlisted tenants weigh 1.0.
    tenant_weights: Dict[str, float] = field(default_factory=dict)
    #: Worker-count ceiling for any native job this service dispatches.
    native_worker_budget: int = 2

    def validate(self) -> None:
        for name in ("max_queue_depth", "max_inflight_per_tenant", "max_running"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("slice_seconds", "quantum_work_units"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.native_worker_budget < 1:
            raise ValueError(
                f"native_worker_budget must be >= 1, got {self.native_worker_budget!r}"
            )
        for tenant, weight in self.tenant_weights.items():
            if weight <= 0:
                raise ValueError(
                    f"tenant_weights[{tenant!r}] must be > 0, got {weight!r}"
                )

    def weight(self, tenant: str) -> float:
        return float(self.tenant_weights.get(tenant, 1.0))


class _JobRecord:
    """Internal per-job bookkeeping (virtual timestamps throughout)."""

    __slots__ = (
        "handle",
        "job",
        "state",
        "arrival_seq",
        "submitted_at",
        "started_at",
        "finished_at",
        "work_charged",
        "result",
        "error",
        "cancel_event",
        "cancel_reason",
        "is_native",
    )

    def __init__(
        self, handle: JobHandle, job: GMinerJob, arrival_seq: int, now: float
    ) -> None:
        self.handle = handle
        self.job = job
        self.state = JobState.QUEUED
        self.arrival_seq = arrival_seq
        self.submitted_at = now
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.work_charged = 0.0
        self.result: Optional[JobResult] = None
        self.error: Optional[BaseException] = None
        self.cancel_event = threading.Event()
        self.cancel_reason: Optional[str] = None
        self.is_native = job.config.execution == "native"

    @property
    def sort_key(self) -> Tuple[int, int]:
        return (_PRIORITY_RANK[self.handle.priority], self.arrival_seq)


class MiningService:
    """See the module docstring for the full contract."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        #: The virtual service clock (seconds); never wall time.
        self.now = 0.0
        #: Byte-identical per (submissions, config): tuples of virtual
        #: times, ids and deterministic quantities only.
        self.schedule_log: List[Tuple[Any, ...]] = []
        self._lock = threading.RLock()
        self._records: Dict[int, _JobRecord] = {}
        #: tenant -> its QUEUED + RUNNING jobs; up at admission, down in
        #: ``_finish`` (every terminal transition goes through it)
        self._active_by_tenant: Dict[str, int] = {}
        self._queued: List[int] = []
        self._running: List[int] = []
        self._tenant_rotation: List[str] = []
        self._rotation_index = 0
        self._deficit: Dict[str, float] = {}
        self._rejections: Dict[str, int] = {}
        self._work_by_tenant: Dict[str, float] = {}
        self._next_job_id = 1
        self._shutting_down = False

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------

    def submit(
        self,
        graph: Graph,
        *,
        pattern: Any = None,
        workload: Optional[str] = None,
        config: Optional[GMinerConfig] = None,
        failure_plan: Any = None,
        execution: Optional[str] = None,
        backend: Optional[str] = None,
        deadline: Optional[float] = None,
        tenant: str = "default",
        priority: str = "normal",
        name: Optional[str] = None,
        **options: Any,
    ) -> JobHandle:
        """Admit a job; returns its handle or raises :class:`AdmissionRejected`.

        The mining arguments are exactly :func:`repro.mine`'s surface
        (resolved through the same ``prepare_job`` helper, so the
        eventual result is bit-identical to the standalone call).
        ``tenant``/``priority``/``name`` are service-side metadata;
        ``priority`` must be one of ``"high"``/``"normal"``/``"low"``.
        """
        if priority not in _PRIORITY_RANK:
            raise ValueError(
                f"unknown priority {priority!r}: expected one of "
                f"{sorted(_PRIORITY_RANK)}"
            )
        # resolve the job *before* taking the lock: validation errors
        # (bad workload, bad options) are the caller's bug, not load
        job = prepare_job(
            graph,
            pattern=pattern,
            workload=workload,
            config=config,
            failure_plan=failure_plan,
            execution=execution,
            backend=backend,
            deadline=deadline,
            **options,
        )
        with self._lock:
            if self._shutting_down:
                self._reject(tenant, "shutting-down")
            if len(self._queued) >= self.config.max_queue_depth:
                self._reject(
                    tenant,
                    "queue-full",
                    limit=self.config.max_queue_depth,
                    current=len(self._queued),
                )
            inflight = self._active_by_tenant.get(tenant, 0)
            if inflight >= self.config.max_inflight_per_tenant:
                self._reject(
                    tenant,
                    "tenant-cap",
                    limit=self.config.max_inflight_per_tenant,
                    current=inflight,
                )
            job_id = self._next_job_id
            self._next_job_id += 1
            handle = JobHandle(
                job_id=job_id,
                tenant=tenant,
                priority=priority,
                name=name or f"{job.app.name}-{job_id}",
            )
            record = _JobRecord(handle, job, arrival_seq=job_id, now=self.now)
            job.cancel_event = record.cancel_event
            if record.is_native:
                # clamp the pool to the service's worker budget
                budget = self.config.native_worker_budget
                requested = job.config.native_workers or budget
                job.config = job.config.replace(
                    native_workers=max(1, min(requested, budget))
                )
            self._records[job_id] = record
            self._active_by_tenant[tenant] = inflight + 1
            self._queued.append(job_id)
            if tenant not in self._tenant_rotation:
                self._tenant_rotation.append(tenant)
                self._deficit[tenant] = 0.0
            self._log("submit", job_id, tenant, priority, handle.name)
            return handle

    def poll(self, handle: JobHandle) -> JobState:
        """The job's current state (non-blocking, never drives work)."""
        with self._lock:
            return self._record(handle).state

    def result(self, handle: JobHandle, drive: bool = True) -> JobResult:
        """The job's result, scheduling work as needed to produce it.

        With ``drive=True`` (default) the caller becomes the scheduler
        until this job leaves the active states.  Failed, cancelled or
        deadline-exceeded jobs re-raise their structured error.
        """
        record = self._record(handle)
        while record.state in _ACTIVE:
            if not drive:
                raise RuntimeError(
                    f"job {handle.name!r} is {record.state.value} "
                    "(drive=False): call step()/run_until_idle() first"
                )
            if not self.step():  # pragma: no cover - progress guard
                raise RuntimeError(
                    f"service made no progress while job {handle.name!r} "
                    f"is {record.state.value}"
                )
        if record.state is JobState.DONE:
            assert record.result is not None
            return record.result
        assert record.error is not None
        raise record.error

    def cancel(self, handle: JobHandle, reason: str = "cancelled by client") -> bool:
        """Cooperatively cancel a job; ``True`` if it was still active.

        Queued jobs finish immediately; running simulated jobs stop at
        their next slice boundary; running native jobs stop via the
        engine's cooperative cancel event and the supervisor teardown.
        """
        with self._lock:
            record = self._record(handle)
            if record.state not in _ACTIVE:
                return False
            record.cancel_reason = reason
            record.cancel_event.set()
            self._log("cancel", handle.job_id)
            if record.state is JobState.QUEUED:
                self._queued.remove(handle.job_id)
                self._finish(record, JobState.CANCELLED,
                             JobCancelled(handle.name, reason))
            return True

    def shutdown(self, reason: str = "service shutdown") -> None:
        """Stop admitting, cancel everything active, settle the ledger.

        Safe from any thread; a native job mid-dispatch is cancelled
        through the engine's cooperative event so its worker pool is
        torn down (terminate+join+drain) before the driver's ``step()``
        returns — no orphan children.
        """
        with self._lock:
            self._shutting_down = True
            self._log("shutdown")
            for job_id in list(self._queued):
                record = self._records[job_id]
                self._queued.remove(job_id)
                self._finish(record, JobState.CANCELLED,
                             JobCancelled(record.handle.name, reason))
            for job_id in list(self._running):
                record = self._records[job_id]
                record.cancel_reason = reason
                record.cancel_event.set()
                if not record.is_native:
                    # sliced jobs are wholly ours: settle them now
                    self._running.remove(job_id)
                    self._finish(record, JobState.CANCELLED,
                                 JobCancelled(record.handle.name, reason))
            # a native job currently executing inside another thread's
            # step() sees its event at the next chunk/tick and finishes
            # as CANCELLED there

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One scheduling turn: admit, then run one tenant's quantum.

        Returns ``True`` if any job started, advanced or finished.
        """
        with self._lock:
            progressed = self._admit()
            turn = self._run_turn()
        return progressed or turn

    def run_until_idle(self, max_turns: int = 1_000_000) -> None:
        """Drive the scheduler until no job is queued or running."""
        for _ in range(max_turns):
            with self._lock:
                if not self._queued and not self._running:
                    return
            self.step()
        raise RuntimeError(f"service still busy after {max_turns} turns")

    def run_trace(
        self,
        trace: Iterable[JobSpec],
        graph_for: Callable[[JobSpec], Graph],
        submit_overrides: Optional[Dict[str, Any]] = None,
    ) -> List[Tuple[JobSpec, Optional[JobHandle]]]:
        """Replay a traffic trace against the virtual clock.

        Arrivals are interleaved with scheduling turns: the clock jumps
        forward to the next arrival only when the service is idle, and
        a busy service keeps slicing until its clock passes the arrival
        (exactly how a real queue absorbs load).  Rejected submissions
        are recorded as ``None`` handles; the tail of work is drained
        with :meth:`run_until_idle`.  Same trace + same config ⇒ same
        ``schedule_log``, byte for byte.
        """
        specs = sorted(trace, key=lambda s: (s.arrival,))
        overrides = submit_overrides or {}
        out: List[Tuple[JobSpec, Optional[JobHandle]]] = []
        i = 0
        while i < len(specs):
            with self._lock:
                busy = bool(self._queued or self._running)
                if not busy and self.now < specs[i].arrival:
                    self.now = specs[i].arrival
                arrived = self.now >= specs[i].arrival
            if arrived:
                spec = specs[i]
                i += 1
                try:
                    handle = self.submit(
                        graph_for(spec),
                        workload=spec.workload,
                        tenant=spec.tenant,
                        priority=spec.priority,
                        name=spec.name,
                        **spec.options,
                        **overrides,
                    )
                except AdmissionRejected:
                    handle = None
                out.append((spec, handle))
            else:
                self.step()
        self.run_until_idle()
        return out

    def slo_report(self) -> SLOReport:
        """The SLO summary of everything this service has seen so far."""
        with self._lock:
            return build_report(
                makespan=self.now,
                records=[self._records[k] for k in sorted(self._records)],
                rejections=dict(self._rejections),
                work_charged=dict(self._work_by_tenant),
                weights=dict(self.config.tenant_weights),
            )

    # ------------------------------------------------------------------
    # internals (all called under self._lock)
    # ------------------------------------------------------------------

    def _record(self, handle: JobHandle) -> _JobRecord:
        try:
            return self._records[handle.job_id]
        except KeyError:
            raise KeyError(f"unknown job handle {handle!r}") from None

    def _log(self, kind: str, *fields: Any) -> None:
        self.schedule_log.append((kind, self.now, *fields))

    def _reject(
        self,
        tenant: str,
        reason: str,
        limit: Optional[int] = None,
        current: Optional[int] = None,
    ) -> None:
        self._rejections[tenant] = self._rejections.get(tenant, 0) + 1
        self._log("reject", tenant, reason)
        raise AdmissionRejected(reason, tenant, limit=limit, current=current)

    def _admit(self) -> bool:
        """Promote queued jobs to RUNNING.

        Order: priority class first, then tenant balance (fewest jobs
        already running — otherwise a demand-heavy tenant monopolises
        every running slot and DRR has nothing to arbitrate), then
        arrival.  Fully deterministic.
        """
        progressed = False
        while self._queued and len(self._running) < self.config.max_running:
            running_by_tenant: Dict[str, int] = {}
            for running_id in self._running:
                running_tenant = self._records[running_id].handle.tenant
                running_by_tenant[running_tenant] = (
                    running_by_tenant.get(running_tenant, 0) + 1
                )

            def admit_key(j: int) -> Tuple[int, int, int]:
                r = self._records[j]
                return (
                    _PRIORITY_RANK[r.handle.priority],
                    running_by_tenant.get(r.handle.tenant, 0),
                    r.arrival_seq,
                )

            job_id = min(self._queued, key=admit_key)
            record = self._records[job_id]
            self._queued.remove(job_id)
            record.state = JobState.RUNNING
            record.started_at = self.now
            self._log("start", job_id)
            if not record.is_native:
                try:
                    record.job.begin()
                except Exception as exc:
                    self._finish(record, JobState.FAILED, exc)
                    progressed = True
                    continue
            self._running.append(job_id)
            progressed = True
        return progressed

    def _next_tenant(self) -> Optional[str]:
        """The next rotation tenant with a running job, if any."""
        if not self._tenant_rotation:
            return None
        n = len(self._tenant_rotation)
        for offset in range(n):
            tenant = self._tenant_rotation[(self._rotation_index + offset) % n]
            if any(
                self._records[j].handle.tenant == tenant for j in self._running
            ):
                self._rotation_index = (self._rotation_index + offset + 1) % n
                return tenant
        return None

    def _run_turn(self) -> bool:
        """One deficit-round-robin turn for the next backlogged tenant."""
        tenant = self._next_tenant()
        if tenant is None:
            # nothing runnable: deficits are meaningless until work returns
            for t in self._deficit:
                self._deficit[t] = 0.0
            return False
        self._deficit[tenant] = self._deficit.get(tenant, 0.0) + (
            self.config.quantum_work_units * self.config.weight(tenant)
        )
        progressed = False
        while self._deficit[tenant] > 0:
            candidates = [
                j
                for j in self._running
                if self._records[j].handle.tenant == tenant
            ]
            if not candidates:
                # queue emptied mid-turn: unused credit does not bank
                self._deficit[tenant] = 0.0
                break
            job_id = min(candidates, key=lambda j: self._records[j].sort_key)
            charged = self._dispatch(self._records[job_id])
            self._deficit[tenant] -= charged
            self._work_by_tenant[tenant] = (
                self._work_by_tenant.get(tenant, 0.0) + charged
            )
            progressed = True
        return progressed

    def _dispatch(self, record: _JobRecord) -> float:
        """Run one unit of the job; returns the work units charged."""
        if record.cancel_event.is_set():
            self._running.remove(record.handle.job_id)
            self._finish(
                record,
                JobState.CANCELLED,
                JobCancelled(
                    record.handle.name,
                    record.cancel_reason or "cancelled by client",
                ),
            )
            return 1.0  # spend deficit so a cancel storm cannot spin the turn
        if record.is_native:
            return self._dispatch_native(record)
        return self._dispatch_slice(record)

    def _dispatch_slice(self, record: _JobRecord) -> float:
        """Advance a simulated job by one time slice."""
        job = record.job
        before_work = job.work_units_charged()
        before_sim = job.sim_now
        try:
            done = job.advance(until=before_sim + self.config.slice_seconds)
        except JobDeadlineExceeded as exc:
            self._settle_failed(record, JobState.DEADLINE, exc, before_work)
            return max(record.job.work_units_charged() - before_work, 1.0)
        except JobCancelled as exc:
            self._settle_failed(record, JobState.CANCELLED, exc, before_work)
            return max(record.job.work_units_charged() - before_work, 1.0)
        except Exception as exc:
            self._settle_failed(record, JobState.FAILED, exc, before_work)
            return 1.0
        # bill the slice: real work if the cluster did any, a floor of
        # one unit otherwise (setup phases must not be free forever)
        charged = max(job.work_units_charged() - before_work, 1.0)
        record.work_charged += charged
        self.now += max(job.sim_now - before_sim, 0.0)
        self._log(
            "slice", record.handle.job_id, job.sim_now, charged
        )
        if done:
            try:
                result = job.complete()
            except Exception as exc:
                self._running.remove(record.handle.job_id)
                self._finish(record, JobState.FAILED, exc)
                return charged
            self._running.remove(record.handle.job_id)
            record.result = result
            self._finish(record, JobState.DONE, None)
        return charged

    def _dispatch_native(self, record: _JobRecord) -> float:
        """Run a native job to completion on the supervised pool.

        Executes outside the lock so concurrent ``cancel()`` /
        ``shutdown()`` calls can trip the cooperative cancel event
        mid-run.  The virtual clock is billed from the job's
        deterministic work-unit total — never from wall time — so the
        schedule log stays reproducible.
        """
        job = record.job
        self._lock.release()
        try:
            result: Optional[JobResult] = None
            error: Optional[BaseException] = None
            try:
                result = job.run()
            except BaseException as exc:
                error = exc
        finally:
            self._lock.acquire()
        self._running.remove(record.handle.job_id)
        if error is not None:
            if isinstance(error, JobDeadlineExceeded):
                state = JobState.DEADLINE
            elif isinstance(error, JobCancelled):
                state = JobState.CANCELLED
            else:
                state = JobState.FAILED
            self._finish(record, state, error)
            return 1.0
        assert result is not None
        charged = max(float(result.stats.get("work_units", 0.0)), 1.0)
        record.work_charged += charged
        self.now += charged / NATIVE_VIRTUAL_RATE
        self._log("run-native", record.handle.job_id, charged)
        record.result = result
        self._finish(record, JobState.DONE, None)
        return charged

    def _settle_failed(
        self,
        record: _JobRecord,
        state: JobState,
        error: BaseException,
        before_work: float,
    ) -> None:
        job_id = record.handle.job_id
        if job_id in self._running:
            self._running.remove(job_id)
        charged = max(record.job.work_units_charged() - before_work, 1.0)
        record.work_charged += charged
        self._finish(record, state, error)

    def _finish(
        self,
        record: _JobRecord,
        state: JobState,
        error: Optional[BaseException],
    ) -> None:
        if record.state in _ACTIVE:
            self._active_by_tenant[record.handle.tenant] -= 1
        record.state = state
        record.error = error
        record.finished_at = self.now
        self._log("finish", record.handle.job_id, state.value)
