"""Job orchestration: run a G-Miner application on a simulated cluster.

:class:`GMinerJob` wires the full system — HDFS load, partitioning
(BDG or hash), worker construction, the master's coordination loops,
optional failure injection — runs the simulation to completion, and
returns a :class:`JobResult` carrying every quantity the paper's tables
and figures report: elapsed (simulated) time, average CPU utilisation,
peak aggregate memory, network bytes, utilisation timelines and
pipeline statistics.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro import kernels
from repro.core.aggregator import AggregatorState
from repro.core.api import GMinerApp
from repro.core.config import GMinerConfig
from repro.core.errors import JobDeadlineExceeded
from repro.core.master import Master
from repro.core.recovery import JobRecovery, fault_stats
from repro.core.worker import SimWorker
from repro.graph.graph import Graph
from repro.obs import MASTER_TID, ObsSession, current_collector
from repro.partitioning import BDGPartitioner, HashPartitioner, PartitionAssignment
from repro.sim.cluster import Cluster, build_cluster
from repro.sim.engine import Simulator
from repro.sim.errors import SimulatedOOMError
from repro.sim.failures import FailurePlan
from repro.sim.metrics import UtilizationTimeline
from repro.verify import InvariantMonitor, verify_env_enabled


class JobStatus(enum.Enum):
    OK = "ok"
    OOM = "oom"  # the paper's "x" entries
    TIMEOUT = "timeout"  # the paper's "-" entries


class JobController:
    """Global liveness tracking: when is the job done?

    The job finishes when every worker's task generator has completed
    and the number of live tasks reaches zero with no recovery pending.
    """

    def __init__(self, sim: Simulator, num_workers: int) -> None:
        self.sim = sim
        self.live = 0
        self.total_created = 0
        # lifecycle ledger: created + restored == dead + lost once the
        # job finishes (the task-conservation law repro.verify audits)
        self.total_dead = 0
        self.total_lost = 0
        self.total_restored = 0
        self.finished = False
        self.finish_time: Optional[float] = None
        self._seeding_pending: Set[int] = set(range(num_workers))
        self.recovery_pending = 0

    def task_created(self) -> None:
        """A task entered the system (seeding, splitting, re-injection)."""
        self.live += 1
        self.total_created += 1

    def task_dead(self) -> None:
        """A task finished; may complete the job."""
        self.live -= 1
        self.total_dead += 1
        self._check()

    def tasks_lost(self, n: int) -> None:
        """A failed worker took ``n`` live tasks down with it."""
        self.live -= n
        self.total_lost += n

    def tasks_restored(self, n: int) -> None:
        """Checkpoint recovery re-created ``n`` live tasks."""
        self.live += n
        self.total_restored += n

    def seeding_finished(self, worker_id: int) -> None:
        """A worker's task generator completed its scan."""
        self._seeding_pending.discard(worker_id)
        self._check()

    def begin_recovery(self) -> None:
        """Hold job completion open while a worker recovers."""
        self.recovery_pending += 1

    def end_recovery(self) -> None:
        """Recovery done; completion may now trigger."""
        self.recovery_pending -= 1
        self._check()

    def _check(self) -> None:
        if (
            not self.finished
            and not self._seeding_pending
            and self.recovery_pending == 0
            and self.live == 0
        ):
            self.finished = True
            self.finish_time = self.sim.now


@dataclass
class JobResult:
    """Everything a finished (or failed) job reports."""

    status: JobStatus
    app_name: str
    value: Any = None
    aggregated: Any = None
    setup_seconds: float = 0.0
    partition_seconds: float = 0.0
    mining_seconds: float = 0.0
    total_seconds: float = 0.0
    cpu_utilization: float = 0.0
    peak_memory_bytes: int = 0
    network_bytes: int = 0
    disk_bytes: int = 0
    num_results: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    timeline: Optional[UtilizationTimeline] = None
    mining_window: Tuple[float, float] = (0.0, 0.0)
    #: Finalized ``repro.obs`` snapshot (schema ``repro.obs.run/1``)
    #: when the job ran with observability on; ``None`` otherwise.
    obs: Optional[Dict[str, Any]] = None
    #: Native-engine diagnostics (wall-clock seconds, pool size, steal
    #: count, backend) when the job ran under ``execution="native"``;
    #: ``None`` for simulated runs.  Deliberately separate from
    #: ``stats``: these are schedule- and host-dependent, while every
    #: ``stats`` entry of a native result is bit-deterministic.
    native: Optional[Dict[str, Any]] = None
    #: Approximation report (:class:`repro.kernels.sketch.EstimateReport`:
    #: point, ci_low, ci_high, epsilon, confidence, sketch_seed)
    #: when the job ran under ``kernel_backend="sketch"`` and the
    #: workload's result is an estimate; ``None`` on every exact run.
    #: ``value`` then carries the rounded point estimate, so exact
    #: consumers keep working — but only ``estimate`` states the
    #: uncertainty.
    estimate: Optional[Any] = None

    @property
    def ok(self) -> bool:
        """True when the job completed within memory and time budgets."""
        return self.status is JobStatus.OK

    @property
    def peak_memory_gb(self) -> float:
        """Cluster-wide peak memory in GB (the paper's Mem columns)."""
        return self.peak_memory_bytes / 1e9

    @property
    def network_gb(self) -> float:
        """Total network traffic in GB (the paper's Net columns)."""
        return self.network_bytes / 1e9

    def utilization_series(self, bins: int = 50):
        """CPU/network/disk utilisation time series (Figures 5–6)."""
        if self.timeline is None:
            raise ValueError("no timeline recorded")
        start, end = self.mining_window
        return self.timeline.sample(end, bins=bins, start=start)

    def to_dict(self, bins: int = 20) -> Dict[str, Any]:
        """Flatten to JSON-serialisable primitives.

        Drops the non-serialisable timeline object but keeps its
        summary (a sampled utilisation series).  This is the canonical
        serialisation; ``repro.bench.export`` delegates here.
        """
        out: Dict[str, Any] = {
            "status": self.status.value,
            "app": self.app_name,
            "setup_seconds": self.setup_seconds,
            "partition_seconds": self.partition_seconds,
            "mining_seconds": self.mining_seconds,
            "total_seconds": self.total_seconds,
            "cpu_utilization": self.cpu_utilization,
            "peak_memory_bytes": self.peak_memory_bytes,
            "network_bytes": self.network_bytes,
            "disk_bytes": self.disk_bytes,
            "num_results": self.num_results,
            "stats": dict(self.stats),
        }
        out["value"] = jsonable(self.value)
        out["aggregated"] = jsonable(self.aggregated)
        if self.timeline is not None and self.mining_window[1] > self.mining_window[0]:
            times, series = self.utilization_series(bins=bins)
            out["utilization"] = {"times": times, **series}
        if self.native is not None:
            out["native"] = dict(self.native)
        if self.estimate is not None:
            out["estimate"] = self.estimate.to_dict()
        if self.obs is not None:
            # metrics travel (they are small and deterministic); the
            # full span list stays behind ``result.obs`` itself
            out["obs"] = {
                "schema": self.obs.get("schema"),
                "metrics": self.obs.get("metrics"),
                "num_spans": len(self.obs.get("spans", ())),
                "spans_dropped": self.obs.get("spans_dropped", 0),
            }
        return out


def jsonable(value: Any) -> Any:
    """Best-effort conversion of mining results to JSON primitives."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


class GMinerJob:
    """Configure and execute one G-Miner job."""

    def __init__(
        self,
        app: GMinerApp,
        graph: Graph,
        config: Optional[GMinerConfig] = None,
        failure_plan: Optional[FailurePlan] = None,
    ) -> None:
        self.app = app
        self.graph = graph
        self.config = config or GMinerConfig()
        self.config.validate()
        if failure_plan is not None:
            # fail fast: a malformed chaos schedule should surface at
            # construction, not minutes into the run.  Native fault
            # plans target real worker processes and are only
            # meaningful under execution="native" (lazy import:
            # repro.native depends on this module).
            from repro.native.chaos import NativeFaultPlan

            if isinstance(failure_plan, NativeFaultPlan):
                if self.config.execution != "native":
                    raise ValueError(
                        "NativeFaultPlan injects faults into the real "
                        "process pool and requires execution='native'; "
                        "use sim.failures.FailurePlan for simulated "
                        "chaos runs"
                    )
                failure_plan.validate()
            else:
                failure_plan.validate(num_nodes=self.config.cluster.num_nodes)
        self.failure_plan = failure_plan
        self.workers: List[SimWorker] = []
        self.master: Optional[Master] = None
        self.cluster: Optional[Cluster] = None
        self.assignment: Optional[PartitionAssignment] = None
        self.obs: Optional[ObsSession] = None
        self.verify: Optional[InvariantMonitor] = None
        #: §7 arming (:mod:`repro.core.recovery`) when the job has a
        #: failure plan or checkpoints; ``None`` otherwise.
        self.recovery: Optional[JobRecovery] = None
        #: Optional ``threading.Event``-like cancel flag.  Set it (from
        #: any thread) before or during ``run()`` to cancel a native
        #: run cooperatively: the supervised pool is torn down
        #: (terminate+join+drain) and ``run()`` raises ``JobCancelled``.
        #: Simulated jobs are single-threaded; cancel those by simply
        #: not calling ``advance()`` again.
        self.cancel_event = None
        # incremental-execution state (``begin()``/``advance()``/
        # ``complete()``): populated by ``begin()``, read between
        # slices by the ``repro.service`` scheduler
        self._sim: Optional[Simulator] = None
        self._controller: Optional[JobController] = None
        self._collector = None
        self._metering_hook: Optional[Callable[[str, float], None]] = None
        self._setup_seconds = 0.0
        self._partition_seconds = 0.0
        self._transfer_seconds = 0.0
        self._oom = False
        self._result: Optional[JobResult] = None

    # ------------------------------------------------------------------

    def _partition(self, num_workers: int) -> PartitionAssignment:
        if self.config.partitioner == "bdg":
            partitioner = BDGPartitioner()
        else:
            partitioner = HashPartitioner()
        # Partitioning is a pure function of (graph, algorithm, k);
        # when a build cache is active, repeated cells — and repeated
        # bench invocations, via the disk level — reuse the assignment.
        from repro.parallel.cache import get_build_cache

        cache = get_build_cache()
        if cache is None:
            return partitioner.partition(self.graph, num_workers)
        params = dict(
            partitioner.cache_params(),
            num_workers=num_workers,
            graph=self.graph.fingerprint(),
        )
        return cache.lookup(
            "partition",
            params,
            lambda: partitioner.partition(self.graph, num_workers),
        )

    def _setup_costs(self, assignment: PartitionAssignment, cluster: Cluster) -> Tuple[float, float]:
        """(hdfs load + shuffle seconds, partitioning seconds)."""
        spec = self.config.cluster
        graph_bytes = self.graph.estimate_size()
        # initial parallel load from HDFS
        load_seconds = graph_bytes / (4e6 * spec.num_nodes) + 2e-3
        # partitioning runs distributed across the cluster
        partition_seconds = assignment.partition_time_units / (
            spec.core_speed * spec.num_nodes
        )
        # shuffle: vertices move from their initial loader (contiguous
        # ranges) to their assigned owner
        vids = sorted(self.graph.vertices())
        chunk = max(1, (len(vids) + spec.num_nodes - 1) // spec.num_nodes)
        moved = 0
        for i, vid in enumerate(vids):
            loader = min(i // chunk, spec.num_nodes - 1)
            if assignment.owner_of(vid) != loader:
                moved += self.graph.vertex_data(vid).estimate_size()
        shuffle_seconds = moved / (spec.net_bandwidth * spec.num_nodes)
        cluster.network.bytes_counter.add(moved)
        return load_seconds + shuffle_seconds, partition_seconds

    # ------------------------------------------------------------------

    def run(self) -> JobResult:
        if self.config.execution == "native":
            # the real multiprocess engine; refuses simulated failure
            # plans and has no simulated timeline (lazy import:
            # repro.native depends on this module)
            from repro.native import run_native

            return run_native(
                self.app,
                self.graph,
                self.config,
                failure_plan=self.failure_plan,
                cancel=self.cancel_event,
            )
        # run() is exactly the incremental protocol driven to the end
        # in one slice, so interleaved execution (repro.service) is
        # byte-identical to the one-shot path by construction
        self.begin()
        self.advance()
        return self.complete()

    # -- incremental execution -----------------------------------------
    #
    # The simulated path decomposes into three phases so a caller can
    # time-division-multiplex many jobs on one thread:
    #
    #   begin()      build cluster/workers/master, queue the first event
    #   advance(t)   process events up to virtual time ``t`` (or to the
    #                job's time limit / deadline / heap drain)
    #   complete()   collect the JobResult once ``done`` is True
    #
    # Repeated ``advance()`` calls with increasing targets are
    # semantically transparent: the event heap pops in (time, seq)
    # order regardless of how often the loop is re-entered, so any
    # slicing schedule yields the same events in the same order as a
    # single ``sim.run()``.

    def begin(self) -> "GMinerJob":
        """Build the simulated job without processing any events."""
        if self.config.execution == "native":
            raise RuntimeError(
                "begin()/advance()/complete() drive the simulated engine; "
                "execution='native' jobs only support run()"
            )
        if self._sim is not None:
            raise RuntimeError("job already begun")
        sim = Simulator()
        collector = current_collector()
        obs: Optional[ObsSession] = None
        if self.config.enable_obs or collector is not None:
            from repro.core.task import peek_task_id

            obs = ObsSession(
                clock=lambda: sim.now,
                name=self.app.name,
            )
            obs.task_base = peek_task_id()
            sim.obs = obs
        self.obs = obs
        verify = None
        if self.config.verify or verify_env_enabled():
            verify = InvariantMonitor(clock=lambda: sim.now)
            sim.verify = verify
        self.verify = verify
        self._collector = collector
        if obs is not None and verify is not None:
            obs_hook, verify_hook = obs.kernel_batch, verify.kernel_batch

            def hook(op, units):
                obs_hook(op, units)
                verify_hook(op, units)

            self._metering_hook = hook
        elif obs is not None:
            self._metering_hook = obs.kernel_batch
        elif verify is not None:
            self._metering_hook = verify.kernel_batch
        self._sim = sim
        with self._job_context():
            self._build(sim)
        return self

    @contextlib.contextmanager
    def _job_context(self):
        """Pin process-global kernel state for one phase of this job.

        Installed and removed around *every* begin/advance/complete
        call rather than once per run so interleaved jobs
        (``repro.service``) with different backends or obs sessions
        never observe each other's metering hook; restored
        unconditionally so a failing phase cannot leak the hook into
        the next job.  Backends are work-unit-identical, so pinning
        cannot change the simulated metrics, only wall-clock speed.
        """
        hook = self._metering_hook
        previous = kernels.set_metering_hook(hook) if hook is not None else None
        try:
            with contextlib.ExitStack() as stack:
                if self.config.kernel_backend is not None:
                    stack.enter_context(
                        kernels.use_backend(self.config.kernel_backend)
                    )
                sketch_params = self.config.sketch_params()
                if sketch_params is not None:
                    stack.enter_context(
                        kernels.use_sketch_params(sketch_params)
                    )
                yield
        finally:
            if hook is not None:
                kernels.set_metering_hook(previous)

    def _cap(self) -> Optional[float]:
        """The virtual time past which this job never advances."""
        caps = [
            c
            for c in (self.config.time_limit, self.config.job_deadline)
            if c is not None
        ]
        return min(caps) if caps else None

    @property
    def sim_now(self) -> float:
        """The job's own virtual clock (0.0 before ``begin()``)."""
        return self._sim.now if self._sim is not None else 0.0

    @property
    def finished(self) -> bool:
        """True once mining completed (the controller's ledger closed)."""
        return self._controller is not None and self._controller.finished

    @property
    def done(self) -> bool:
        """True when ``advance()`` can make no further progress."""
        if self._sim is None:
            return False
        if self._oom or self._sim.peek() is None:
            return True
        cap = self._cap()
        return cap is not None and self._sim.now >= cap

    def work_units_charged(self) -> float:
        """Live cluster-wide work-unit total, readable mid-run.

        This is the same quantity ``JobResult.stats["work_units"]``
        reports at the end; the service scheduler charges tenants by
        its per-slice deltas.
        """
        if self.cluster is None:
            return 0.0
        return float(sum(n.cores.total_work_units for n in self.cluster.nodes))

    def advance(self, until: Optional[float] = None) -> bool:
        """Process events up to virtual time ``until`` (absolute).

        ``None`` runs to the job's own cap — its time limit or
        deadline, or heap drain when it has neither.  Returns
        :attr:`done`.  Raises :class:`JobDeadlineExceeded` when
        ``config.job_deadline`` elapses on the job's virtual clock
        before mining completes; the deadline is enforced as a clamp
        on the run target (never a heap event), so a job that finishes
        in time is byte-identical to one with no deadline at all.
        """
        if self._sim is None:
            raise RuntimeError("advance() before begin()")
        sim = self._sim
        if self.done:
            return True
        target = until
        cap = self._cap()
        if cap is not None:
            target = cap if target is None else min(target, cap)
        if target is not None and target <= sim.now:
            self._check_deadline(sim)
            return self.done
        with self._job_context():
            try:
                sim.run(until=target)
            except SimulatedOOMError:
                self._oom = True
        if not self._oom:
            self._check_deadline(sim)
        return self.done

    def _check_deadline(self, sim: Simulator) -> None:
        deadline = self.config.job_deadline
        if (
            deadline is not None
            and not self._controller.finished
            and sim.now >= deadline
        ):
            raise JobDeadlineExceeded(
                self.app.name, deadline, elapsed=sim.now, clock="simulated"
            )

    def complete(self) -> JobResult:
        """Collect the :class:`JobResult`; idempotent once called."""
        if self._result is not None:
            return self._result
        if self._sim is None:
            raise RuntimeError("complete() before begin()")
        controller = self._controller
        status = JobStatus.OK
        if self._oom:
            status = JobStatus.OOM
        elif not controller.finished:
            status = JobStatus.TIMEOUT
        with self._job_context():
            result = self._collect(status)
            if self.verify is not None:
                # the full conservation audit; on OK runs the
                # controller is finished and the task ledger must
                # balance exactly
                self.verify.check_end_of_job(
                    controller=controller,
                    workers=self.workers,
                    master=self.master,
                    cluster=self.cluster,
                )
            if self.obs is not None:
                self._finalize_obs(result)
        if self._collector is not None:
            self._collector.add_run(result.obs)
        self._result = result
        return result

    def _build(self, sim: Simulator) -> None:
        spec = self.config.cluster
        num_workers = spec.num_nodes
        cluster = build_cluster(spec, sim, extra_network_endpoints=1)
        self.cluster = cluster
        if self.obs is not None:
            cluster.network.obs = self.obs
        if self.verify is not None:
            cluster.network.verify = self.verify
        master_endpoint = num_workers

        assignment = self._partition(num_workers)
        assignment.validate_complete(self.graph)
        self.assignment = assignment
        transfer_seconds, partition_seconds = self._setup_costs(assignment, cluster)
        setup_seconds = transfer_seconds + partition_seconds

        controller = JobController(sim, num_workers)
        aggregator = self.app.make_aggregator()
        owner_of = assignment.owner_of

        workers: List[SimWorker] = []
        for worker_id in range(num_workers):
            agg_state = AggregatorState(aggregator) if aggregator else None
            worker = SimWorker(
                worker_id=worker_id,
                node=cluster.node(worker_id),
                cluster=cluster,
                config=self.config,
                app=self.app,
                controller=controller,
                owner_of=owner_of,
                aggregator_state=agg_state,
                master_endpoint=master_endpoint,
            )
            if self.obs is not None:
                worker.attach_obs(self.obs)
            if self.verify is not None:
                worker.verify = self.verify
            workers.append(worker)
        self.workers = workers

        master = Master(
            cluster=cluster,
            config=self.config,
            num_workers=num_workers,
            endpoint=master_endpoint,
            aggregator=aggregator,
            controller=controller,
        )
        if self.obs is not None:
            master.attach_obs(self.obs)
        if self.verify is not None:
            master.verify = self.verify
        self.master = master

        # distribute partitions (memory charged immediately; the time
        # cost is folded into setup_seconds)
        for worker_id in range(num_workers):
            vids = assignment.vertices_of(worker_id)
            workers[worker_id].load_partition(
                {vid: self.graph.vertex_data(vid) for vid in vids}
            )

        def start_mining():
            for worker in workers:
                worker.seed_tasks()
            master.start()
            for worker in workers:
                self._arm_worker_tick(worker, controller)

        sim.schedule(setup_seconds, start_mining)

        if self.failure_plan is not None or self.config.checkpoint_interval is not None:
            self.recovery = JobRecovery(self, controller)

        self._controller = controller
        self._setup_seconds = setup_seconds
        self._partition_seconds = partition_seconds
        self._transfer_seconds = transfer_seconds

    def _finalize_obs(self, result: JobResult) -> None:
        """Record job-phase spans and run-level gauges, then freeze the
        session into ``result.obs``.

        The gauges are the run-level totals: simulated makespan,
        message count, network bytes, tasks created and charged work
        units (pinned by ``tests/test_golden_values.py``).
        """
        obs, controller, cluster = self.obs, self._controller, self.cluster
        finish = result.total_seconds
        setup_seconds = result.setup_seconds
        obs.tracer.complete(
            "job.partition",
            cat="job",
            tid=MASTER_TID,
            start=min(self._transfer_seconds, finish),
            end=min(setup_seconds, finish),
        )
        obs.tracer.complete(
            "job.setup",
            cat="job",
            tid=MASTER_TID,
            start=0.0,
            end=min(setup_seconds, finish),
            transfer=self._transfer_seconds,
            partition=self._partition_seconds,
        )
        if finish > setup_seconds:
            obs.tracer.complete(
                "job.mining", cat="job", tid=MASTER_TID, start=setup_seconds, end=finish
            )
        gauge = obs.registry.gauge
        gauge("job.makespan").set(finish)
        gauge("job.messages").set(float(cluster.network.messages_sent))
        gauge("job.network_bytes").set(float(cluster.network.bytes_counter.total))
        gauge("job.tasks_created").set(float(controller.total_created))
        gauge("job.work_units").set(
            float(sum(n.cores.total_work_units for n in cluster.nodes))
        )
        gauge("job.peak_memory_bytes").set(float(result.peak_memory_bytes))
        result.obs = obs.finalize(
            end=finish,
            meta={"app": self.app.name, "status": result.status.value},
        )

    # ------------------------------------------------------------------

    def _arm_worker_tick(self, worker: SimWorker, controller: JobController) -> None:
        """Periodic per-worker loop: progress + agg reports + liveness.

        Backs off exponentially while the worker idles so a finished
        cluster doesn't spin the event loop.
        """
        base = self.config.progress_interval
        state = {"interval": base}
        verify = self.verify
        master = self.master

        def tick():
            if verify is not None:
                # barrier checks piggybacking on this existing event:
                # the monitor never schedules events of its own, so
                # enabling it cannot perturb the simulated timeline
                if worker.node.alive:
                    verify.check_worker(worker)
                if master is not None:
                    verify.check_master(master)
                verify.check_network(worker.cluster.network)
                verify.check_work(worker.cluster.nodes)
            if controller.finished:
                return
            if worker.node.alive:
                worker.send_progress()
                worker.send_agg_report()
                if worker.node.cores.busy_cores == 0 and worker.node.cores.queued == 0:
                    worker._flush_buffer(force=True)
                worker._pump_retriever()
            if worker.idle:
                state["interval"] = min(state["interval"] * 2.0, 1.0)
            else:
                state["interval"] = base
            worker.cluster.sim.schedule(state["interval"], tick)

        worker.cluster.sim.schedule(base, tick)

    # ------------------------------------------------------------------

    def _collect(self, status: JobStatus) -> JobResult:
        controller, cluster = self._controller, self.cluster
        setup_seconds = self._setup_seconds
        finish = controller.finish_time if controller.finished else cluster.sim.now
        mining_start = setup_seconds
        mining_seconds = max(0.0, finish - mining_start)

        results: Dict[int, Any] = {}
        for worker in self.workers:
            results.update(worker.results)
        value = self.app.combine_results(results.values()) if results else None

        # under the sketch backend, estimate-capable workloads combine
        # to an Estimate: surface the uncertainty separately and keep
        # ``value`` a plain (rounded) number so exact consumers of the
        # result shape keep working unchanged
        estimate = None
        if self.config.kernel_backend == "sketch" and value is not None:
            from repro.kernels import sketch as sketch_mod

            if isinstance(value, sketch_mod.Estimate):
                params = sketch_mod.get_params()
                estimate = sketch_mod.EstimateReport(
                    point=value.point,
                    ci_low=value.lo,
                    ci_high=value.hi,
                    epsilon=params.epsilon,
                    confidence=params.confidence,
                    sketch_seed=params.seed,
                    exact=value.exact,
                )
                value = int(round(value.point))

        aggregated = None
        agg = self.app.make_aggregator()
        if agg is not None:
            partials = [
                w.agg.local_partial for w in self.workers if w.agg is not None
            ]
            if self.recovery is not None:
                partials.extend(self.recovery.durable_partials())
            aggregated = agg.merge_all(partials) if partials else agg.initial()

        meters = {
            "cpu": _merged_meter([n.cores.meter for n in cluster.nodes], "cpu"),
            "network": _merged_meter(
                [cluster.network.node_meter(n.node_id) for n in cluster.nodes],
                "network",
            ),
            "disk": _merged_meter([n.disk.meter for n in cluster.nodes], "disk"),
        }
        timeline = UtilizationTimeline(meters=meters)

        stats: Dict[str, float] = {
            # total charged work units across the cluster (the quantity
            # the obs gate tracks and the native engine must reproduce
            # bit-for-bit for schedule-independent workloads)
            "work_units": sum(n.cores.total_work_units for n in cluster.nodes),
            "tasks_created": controller.total_created,
            "steals_brokered": self.master.steals_brokered if self.master else 0,
            "cache_hits": sum(c.hits for w in self.workers for c in w.caches),
            "cache_misses": sum(c.misses for w in self.workers for c in w.caches),
            "vertices_pulled": sum(w.stats.vertices_pulled for w in self.workers),
            "re_pulls": sum(w.stats.re_pulls for w in self.workers),
            "tasks_migrated": sum(w.stats.tasks_migrated_in for w in self.workers),
            "rounds_executed": sum(w.stats.rounds_executed for w in self.workers),
            "disk_spills": sum(w.store.disk_spills for w in self.workers),
            "disk_loads": sum(w.store.disk_loads for w in self.workers),
            "checkpoints": sum(w.stats.checkpoints for w in self.workers),
            "overflow_inserts": sum(
                c.rejected_inserts for w in self.workers for c in w.caches
            ),
            **fault_stats(self.master, self.workers, cluster.network),
        }
        hits = stats["cache_hits"]
        misses = stats["cache_misses"]
        stats["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0

        disk_bytes = sum(
            n.disk.bytes_read.total + n.disk.bytes_written.total for n in cluster.nodes
        )

        return JobResult(
            status=status,
            app_name=self.app.name,
            value=value,
            aggregated=aggregated,
            setup_seconds=setup_seconds,
            partition_seconds=self._partition_seconds,
            mining_seconds=mining_seconds,
            total_seconds=finish,
            cpu_utilization=cluster.cpu_utilization(mining_start, finish)
            if finish > mining_start
            else 0.0,
            peak_memory_bytes=cluster.peak_memory_bytes(),
            network_bytes=cluster.network.bytes_counter.total,
            disk_bytes=disk_bytes,
            num_results=len(results),
            stats=stats,
            timeline=timeline,
            mining_window=(mining_start, finish),
            estimate=estimate,
        )


def _merged_meter(meters, name: str):
    """Merge per-node meters into one cluster-wide meter."""
    from repro.sim.metrics import ResourceMeter

    merged = ResourceMeter(name=name, capacity=sum(m.capacity for m in meters))
    for meter in meters:
        for start, end, units in meter.intervals:
            merged.add_interval(start, end, units)
    return merged
