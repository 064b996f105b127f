"""A G-Miner worker: vertex table + the task pipeline (paper §4.3, §5.1).

One worker runs per cluster node.  It hosts:

* the **vertex table** (its graph partition),
* the **task store** (LSH-ordered priority queue, disk-backed),
* the **candidate retriever** (CMQ + RCV cache + remote pulls),
* the **task executor** (compute pool + task buffer),
* the request listener (serving pulls and migrations from peers),
* the progress reporter.

The three pipeline stages share no barrier: the retriever keeps the
CMQ primed while cores crunch tasks and the disk spills/loads store
blocks, which is exactly the overlap Figure 6 shows.

Fault tolerance (§7) is not here: checkpoints, restore and the
degraded-mode protocol live in :mod:`repro.core.recovery`, reached
through ``self.recovery`` — ``None`` unless the job is armed for them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.aggregator import AggregatorState
from repro.core.api import GMinerApp
from repro.core.config import GMinerConfig
from repro.core.lsh import MinHashLSH
from repro.core.messages import (
    AggBroadcast,
    AggReport,
    MigrateCommand,
    NoTask,
    ProgressReport,
    PullRequest,
    PullResponse,
    StealRequest,
    TaskMigration,
)
from repro.core.rcv_cache import CachePolicy, RCVCache
from repro.core.task import Task, TaskEnv, TaskStatus
from repro.core.task_store import TaskStore
from repro.graph.graph import VertexData
from repro.sim.cluster import Cluster, Node

if TYPE_CHECKING:
    from repro.core.job import JobController
    from repro.core.recovery import WorkerRecovery

#: A task-store block also splits past this many bytes, so heavy tasks
#: (GC growers, GM partial-embedding sets) cannot balloon the one
#: in-memory head block — the store's whole point is bounding memory
#: (§4.3).
STORE_BLOCK_BYTES = 262_144
#: CMQ capacity: tasks the candidate retriever keeps waiting on remote
#: candidates at once, per worker (§4.3).
MAX_INFLIGHT_TASKS = 8
#: Backpressure: the retriever stops feeding the CPQ once this many
#: tasks are queued per core, keeping the surplus INACTIVE in the task
#: store where it is cheap to hold (disk-backed) and visible to task
#: stealing.
CPQ_PER_CORE = 1


@dataclass
class _PendingPull:
    """A CMQ entry: a task waiting for remote candidates."""

    task: Task
    remaining: Set[int] = field(default_factory=set)  # vids not yet available


@dataclass
class WorkerStats:
    """Counters reported in benchmark tables and tests."""

    tasks_seeded: int = 0
    tasks_completed: int = 0
    tasks_migrated_in: int = 0
    tasks_migrated_out: int = 0
    rounds_executed: int = 0
    pulls_sent: int = 0
    vertices_pulled: int = 0
    re_pulls: int = 0
    steal_requests: int = 0
    checkpoints: int = 0


class SimWorker:
    """One G-Miner worker process on a simulated node."""

    def __init__(
        self,
        worker_id: int,
        node: Node,
        cluster: Cluster,
        config: GMinerConfig,
        app: GMinerApp,
        controller: "JobController",
        owner_of: Callable[[int], int],
        aggregator_state: Optional[AggregatorState],
        master_endpoint: int,
    ) -> None:
        self.worker_id = worker_id
        self.node = node
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config
        self.app = app
        self.controller = controller
        self.owner_of = owner_of
        self.agg = aggregator_state
        self.master_endpoint = master_endpoint

        self.vertex_table: Dict[int, VertexData] = {}
        lsh = MinHashLSH(config.lsh_signature_size) if config.enable_lsh else None
        self.store = TaskStore(
            disk=node.disk,
            block_tasks=config.store_block_tasks,
            lsh=lsh,
            on_alloc=lambda n: node.allocate(n, "task store"),
            on_free=node.free,
            notify=self._pump_retriever,
            block_bytes=STORE_BLOCK_BYTES,
        )
        # §5.1: one process per node shares one cache (the default);
        # multi-process deployment splits the budget into independent
        # per-process caches with no sharing between them.
        k = config.processes_per_node
        self.caches = [
            RCVCache(
                capacity_bytes=config.cache_capacity_bytes // k,
                policy=CachePolicy(config.cache_policy),
                on_alloc=lambda n: node.allocate(n, "RCV cache"),
                on_free=node.free,
            )
            for _ in range(k)
        ]
        self.cmq: Dict[int, _PendingPull] = {}
        self.inflight: Dict[int, List[int]] = {}  # vid -> waiting task ids
        self.task_buffer: List[Task] = []
        self.live_tasks: Dict[int, Task] = {}
        self.results: Dict[int, Any] = {}
        self.overflow: Dict[int, Tuple[VertexData, int]] = {}  # cache-bypass slots
        self.stats = WorkerStats()
        self._steal_pending = False
        self._seeding_done = False
        self._next_seq = 0  # pull RPC and migration ids
        #: :class:`repro.core.recovery.WorkerRecovery` when the job is
        #: armed for failures or checkpoints; ``None`` keeps every hook
        #: site to a single branch.
        self.recovery: Optional["WorkerRecovery"] = None
        #: :class:`repro.obs.ObsSession` when observability is on;
        #: ``None`` keeps every instrumented site to a single branch.
        self.obs = None
        #: :class:`repro.verify.InvariantMonitor` when invariant
        #: checking is armed; ``None`` keeps each recording site to a
        #: single branch.  The monitor double-entry accounts the work
        #: units this worker hands to its core pool so barrier checks
        #: can compare them against the pool's own accumulator.
        self.verify = None
        cluster.network.register_handler(worker_id, self._on_message)

    def _emit(self, task_id: int, name: str) -> None:
        """One ``lifecycle`` instant; every caller guards on ``self.obs``."""
        self.obs.tracer.instant(
            name, cat="lifecycle", tid=self.worker_id, task=self.obs.rel_task(task_id)
        )

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.ObsSession` into this worker.

        Metric handles are resolved once here so the per-event cost is a
        dict-free ``inc()``; span books (pull-wait, RPC, round) are
        plain dicts keyed by task id / RPC seq.  Everything in this
        path is read-only over the simulation: it never schedules
        events, so enabling it cannot change any simulated quantity.
        """
        self.obs = obs
        labels = {"worker": self.worker_id}
        registry = obs.registry
        self._m_seeded = registry.counter("gminer.tasks.seeded", **labels)
        self._m_completed = registry.counter("gminer.tasks.completed", **labels)
        self._m_rounds = registry.counter("gminer.rounds", **labels)
        self._m_pulls = registry.counter("gminer.pulls.sent", **labels)
        self._m_vertices = registry.counter("gminer.vertices.pulled", **labels)
        self._m_retries = registry.counter("gminer.rpc.retries", **labels)
        self._m_checkpoints = registry.counter("gminer.checkpoints", **labels)
        self._h_pull_wait = registry.histogram(
            "gminer.pull.wait_seconds", **labels
        )
        self._pull_spans: Dict[int, Any] = {}  # task_id -> open task.pull_wait
        self._rpc_spans: Dict[int, Any] = {}  # rpc seq -> open rpc.pull

    # ------------------------------------------------------------------
    # memory helpers
    # ------------------------------------------------------------------

    def _adopt(self, task: Task, created: bool = True) -> None:
        """``task`` becomes this worker's: owned, live and accounted."""
        task.owner_worker = self.worker_id
        if created:
            self.controller.task_created()
        self.live_tasks[task.task_id] = task
        size = task._accounted_size = task.estimate_size()
        self.node.allocate(size, "task")

    @property
    def cache(self) -> RCVCache:
        """The (first) process cache; the full list is ``caches``."""
        return self.caches[0]

    def _cache_of(self, task_id: int) -> RCVCache:
        """The cache of the process a task is pinned to (by id)."""
        return self.caches[task_id % len(self.caches)]

    def _reaccount_task(self, task: Task) -> None:
        old = task._accounted_size
        new = task._accounted_size = task.estimate_size()
        if new > old:
            self.node.allocate(new - old, "task growth")
        else:
            self.node.free(old - new)

    # ------------------------------------------------------------------
    # setup: partition loading and task seeding
    # ------------------------------------------------------------------

    def load_partition(self, vertices: Dict[int, VertexData]) -> None:
        """Install the partition assigned to this worker."""
        self.vertex_table = dict(vertices)
        total = sum(v.estimate_size() for v in vertices.values())
        self.node.allocate(total, "vertex table")

    def seed_tasks(self, chunk_size: int = 256) -> None:
        """Run the task generator: scan the vertex table, create one
        task per qualifying seed (§5.1).  Scanning is charged to the
        compute pool in chunks so seeding itself is parallel."""
        vids = sorted(self.vertex_table)
        if not vids:
            self._seeding_done = True
            self.controller.seeding_finished(self.worker_id)
            return
        chunks = [vids[i : i + chunk_size] for i in range(0, len(vids), chunk_size)]
        remaining = {"n": len(chunks)}
        seed_span = None
        if self.obs is not None:
            seed_span = self.obs.tracer.begin(
                "task.seed", cat="task", tid=self.worker_id, vertices=len(vids)
            )

        for chunk in chunks:

            def factory(chunk=chunk):
                work = 0.0
                tasks: List[Task] = []
                for vid in chunk:
                    vertex = self.vertex_table[vid]
                    work += self.app.seed_cost(vertex)
                    task = self.app.make_task(vertex)
                    if task is not None:
                        tasks.append(task)
                if self.verify is not None:
                    self.verify.on_work(work, f"worker[{self.worker_id}].seed")

                def done():
                    if self.obs is not None and tasks:
                        self._m_seeded.inc(len(tasks))
                    for task in tasks:
                        self.stats.tasks_seeded += 1
                        self._adopt(task)
                        if self.obs is not None:
                            self._emit(task.task_id, "task.seeded")
                        self._route(task)
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        if seed_span is not None:
                            self.obs.tracer.finish(seed_span)
                        self._seeding_done = True
                        self.controller.seeding_finished(self.worker_id)
                        self._flush_buffer(force=True)

                return (work, done)

            self.node.cores.submit_lazy(factory)

    # ------------------------------------------------------------------
    # routing: where does a task go after an update round?
    # ------------------------------------------------------------------

    def _remote_needed(self, task: Task) -> List[int]:
        return [v for v in task.to_pull if v not in self.vertex_table]

    def _route(self, task: Task) -> None:
        """Apply the task-lifetime rules (§4.2) after a round."""
        if task.finished:
            self._kill(task)
            return
        remote = self._remote_needed(task)
        if not remote:
            # no remote candidate: next round directly, no status change
            task.status = TaskStatus.ACTIVE
            self._enqueue_ready(task, front=True)
            return
        task.status = TaskStatus.INACTIVE
        task.to_pull = set(remote)
        if self.obs is not None:
            self._emit(task.task_id, "task.buffered")
        self.task_buffer.append(task)
        if len(self.task_buffer) >= self.config.task_buffer_batch:
            self._flush_buffer(force=True)

    def _flush_buffer(self, force: bool = False) -> None:
        if not self.task_buffer:
            return
        if not force and len(self.task_buffer) < self.config.task_buffer_batch:
            return
        batch, self.task_buffer = self.task_buffer, []
        if self.obs is not None:
            for task in batch:
                self._emit(task.task_id, "task.stored")
        self.store.insert_batch(batch)
        self._pump_retriever()

    def _kill(self, task: Task) -> None:
        task.status = TaskStatus.DEAD
        self.live_tasks.pop(task.task_id, None)
        if task.result is not None:
            self.results[task.task_id] = task.result
        self.node.free(task._accounted_size)
        self.stats.tasks_completed += 1
        if self.obs is not None:
            self._emit(task.task_id, "task.finished")
            self._m_completed.inc()
        self.controller.task_dead()

    # ------------------------------------------------------------------
    # candidate retriever (§4.3)
    # ------------------------------------------------------------------

    def _pump_retriever(self) -> None:
        if not self.node.alive:
            return
        cpq_limit = CPQ_PER_CORE * self.node.cores.cores
        while (
            len(self.cmq) < MAX_INFLIGHT_TASKS
            and self.node.cores.queued < cpq_limit
        ):
            task = self.store.pop()
            if task is None:
                break
            self._process_dequeued(task)
        if len(self.store) == 0 and not self.store.loading:
            self._flush_buffer(force=False)
        self._maybe_request_steal()

    def _process_dequeued(self, task: Task) -> None:
        if self.obs is not None:
            self._emit(task.task_id, "task.dequeued")
        held = task._held_refs
        cache = self._cache_of(task.task_id)
        overflow = self.overflow
        need_pull: List[int] = []
        for vid in sorted(task.to_pull):
            if vid in held:
                continue
            if cache.lookup(vid) is not None:
                cache.addref(vid)
                held.add(vid)
            elif vid in overflow:
                data, refs = overflow[vid]
                overflow[vid] = (data, refs + 1)
                held.add(vid)
            else:
                need_pull.append(vid)
        if not need_pull:
            self._mark_ready(task)
            return
        pending = _PendingPull(task=task, remaining=set(need_pull))
        if self.obs is not None:
            self._emit(task.task_id, "task.pull_issued")
            self._pull_spans[task.task_id] = self.obs.tracer.begin(
                "task.pull_wait",
                cat="task",
                tid=self.worker_id,
                task=self.obs.rel_task(task.task_id),
                vids=len(need_pull),
            )
        self.cmq[task.task_id] = pending
        by_owner: Dict[int, List[int]] = {}
        for vid in need_pull:
            waiters = self.inflight.get(vid)
            if waiters is not None:
                waiters.append(task.task_id)
                continue  # someone already pulled this vid
            self.inflight[vid] = [task.task_id]
            by_owner.setdefault(self.owner_of(vid), []).append(vid)
        if self.recovery is not None:
            self.recovery.park_pulls(task.task_id, by_owner)
        for owner, vids in sorted(by_owner.items()):
            self._send_pull(owner, vids)

    def _send_pull(self, owner: int, vids: List[int]) -> None:
        seq = self._next_seq
        self._next_seq += 1
        request = PullRequest(
            requester=self.worker_id, vids=tuple(sorted(vids)), seq=seq
        )
        self.stats.pulls_sent += 1
        if self.obs is not None:
            self._m_pulls.inc()
            self._rpc_spans[seq] = self.obs.tracer.begin(
                "rpc.pull",
                cat="rpc",
                tid=self.worker_id,
                owner=owner,
                vids=len(vids),
            )
        if self.recovery is not None:
            self.recovery.pull_sent(owner, request)
        self._send(owner, request)

    def _on_pull_response(self, response: PullResponse) -> None:
        if self.obs is not None:
            # pop handles duplicates: a retransmitted response finds no
            # open span and records nothing twice
            span = self._rpc_spans.pop(response.seq, None)
            if span is not None:
                self.obs.tracer.finish(span)
                self._h_pull_wait.observe(span.end - span.start)
        if self.recovery is not None and not self.recovery.response_accepted(response):
            return
        if self.obs is not None and response.vertices:
            self._m_vertices.inc(len(response.vertices))
        self.stats.vertices_pulled += len(response.vertices)
        caches, cmq, inflight = self.caches, self.cmq, self.inflight
        ready: List[Task] = []
        for data in response.vertices:
            vid = data.vid
            live_waiters = [t for t in inflight.pop(vid, ()) if t in cmq]
            if len(caches) == 1 or not live_waiters:
                # one shared cache holds one copy pinned by every
                # waiter; with no waiter left (all died in flight) the
                # vertex is cached opportunistically with nothing to pin
                stored = caches[0].insert(data, refs=len(live_waiters))
            else:
                # without cross-process sharing each waiting task's
                # process stores its own copy (the §5.1 multi-process
                # cost); a list, so no insert is skipped after a refusal
                groups = Counter(t % len(caches) for t in live_waiters)
                stored = all(
                    [caches[p].insert(data, refs=n) for p, n in sorted(groups.items())]
                )
            if live_waiters and not stored:
                # a cache cannot make room (all entries referenced, or
                # the vertex alone exceeds capacity): bypass into
                # overflow so the pipeline never deadlocks (§7's
                # "sleep" case).
                self.node.allocate(data.estimate_size(), "cache overflow")
                self.overflow[vid] = (data, len(live_waiters))
            for task_id in live_waiters:
                pending = cmq[task_id]
                pending.task._held_refs.add(vid)
                pending.remaining.discard(vid)
                if not pending.remaining:
                    ready.append(pending.task)
        for task in ready:
            self.cmq.pop(task.task_id, None)
            self._mark_ready(task)
        self._pump_retriever()

    def _mark_ready(self, task: Task) -> None:
        task.status = TaskStatus.READY
        if self.obs is not None:
            self.obs.tracer.finish(self._pull_spans.pop(task.task_id, None))
            self._emit(task.task_id, "task.ready")
        self._enqueue_ready(task)

    # ------------------------------------------------------------------
    # task executor (§4.3)
    # ------------------------------------------------------------------

    def _enqueue_ready(self, task: Task, front: bool = False) -> None:
        self.node.cores.submit_lazy(lambda: self._execute(task), front=front)

    def _gather(self, task: Task) -> Tuple[Dict[int, VertexData], List[int]]:
        """Collect candidate vertex objects; report evicted ones."""
        cand_objs: Dict[int, VertexData] = {}
        missing: List[int] = []
        cache = self._cache_of(task.task_id)
        for vid in task.candidates:
            local = self.vertex_table.get(vid)
            if local is not None:
                cand_objs[vid] = local
                continue
            cached = cache.peek(vid)
            if cached is not None:
                cand_objs[vid] = cached
                continue
            over = self.overflow.get(vid)
            if over is not None:
                cand_objs[vid] = over[0]
                continue
            missing.append(vid)
        return cand_objs, missing

    def _execute(self, task: Task) -> Tuple[float, Callable[[], None]]:
        """Core-start callback: run one real update round."""
        if not self.node.alive or task.task_id not in self.live_tasks:
            return (0.0, lambda: None)
        cand_objs, missing = self._gather(task)
        if missing:
            # a candidate was evicted (lru/fifo ablation) — re-pull it
            self.stats.re_pulls += 1
            if self.verify is not None:
                self.verify.on_work(1.0, f"worker[{self.worker_id}].repull")

            def requeue():
                self._release_refs(task)
                task.status = TaskStatus.INACTIVE
                task.to_pull = set(missing)
                self.task_buffer.append(task)
                self._flush_buffer(force=True)

            return (1.0, requeue)
        task.status = TaskStatus.ACTIVE
        env = TaskEnv(
            worker_id=self.worker_id,
            aggregated=self.agg.best_known if self.agg else None,
            push=self.agg.offer if self.agg else None,
        )
        work = task.run_round(cand_objs, env)
        if self.verify is not None:
            self.verify.on_work(work, f"worker[{self.worker_id}].round")
        self.stats.rounds_executed += 1
        round_span = None
        if self.obs is not None:
            self._emit(task.task_id, "task.executed")
            self._m_rounds.inc()
            round_span = self.obs.tracer.begin(
                "task.round",
                cat="task",
                tid=self.worker_id,
                task=self.obs.rel_task(task.task_id),
                round=task.round,
                work=work,
            )

        def done():
            if round_span is not None:
                self.obs.tracer.finish(round_span)
            if not self.node.alive:
                return
            self._release_refs(task)
            self._reaccount_task(task)
            children = task.spawn()
            for child in children:
                self._adopt(child)
                self._route(child)
            if (
                self.config.enable_splitting
                and not task.finished
                and len(task.candidates) > self.config.split_candidate_threshold
            ):
                parts = task.split()
                if parts:
                    for part in parts:
                        self._adopt(part)
                        self._route(part)
                    task.finish()
            self._route(task)
            if self.node.cores.queued == 0:
                self._flush_buffer(force=True)
            self._pump_retriever()

        return (work, done)

    def _release_refs(self, task: Task) -> None:
        cache = self._cache_of(task.task_id)
        overflow = self.overflow
        for vid in task._held_refs:
            if vid in overflow:
                data, refs = overflow[vid]
                if refs <= 1:
                    del overflow[vid]
                    self.node.free(data.estimate_size())
                else:
                    overflow[vid] = (data, refs - 1)
            else:
                cache.release(vid)
        task._held_refs = set()

    # ------------------------------------------------------------------
    # idle detection & task stealing (§6.2)
    # ------------------------------------------------------------------

    @property
    def idle(self) -> bool:
        return (
            self._seeding_done
            and len(self.store) == 0
            and not self.store.loading
            and not self.cmq
            and not self.task_buffer
            and self.node.cores.busy_cores == 0
            and self.node.cores.queued == 0
        )

    def _maybe_request_steal(self) -> None:
        if (
            not self.config.enable_stealing
            or self._steal_pending
            or self.controller.finished
            or not self.idle
        ):
            return
        self._steal_pending = True
        self.stats.steal_requests += 1
        self._send(self.master_endpoint, StealRequest(worker=self.worker_id))

    def migrate_tasks_to(self, dest: int, count: int) -> None:
        """MIGRATE handler on the victim: ship tasks from the store tail."""

        def local_rate(task: Task) -> float:
            return task.local_rate(len(self._remote_needed(task)))

        tasks = self.store.steal_batch(
            limit=count,
            cost_threshold=self.config.steal_cost_threshold,
            local_rate_threshold=self.config.steal_local_rate_threshold,
            local_rate_fn=local_rate,
        )
        if not tasks:
            self._send(dest, NoTask(source=self.worker_id))
            return
        for task in tasks:
            self.live_tasks.pop(task.task_id, None)
            self.node.free(task._accounted_size)
            self.stats.tasks_migrated_out += 1
            if self.obs is not None:
                self._emit(task.task_id, "task.migrated_out")
        seq = self._next_seq
        self._next_seq += 1
        migration = TaskMigration(source=self.worker_id, tasks=tasks, seq=seq)
        if self.recovery is not None:
            self.recovery.migration_shipped(dest, migration)
        self._send(dest, migration)

    def _on_migration(self, migration: TaskMigration) -> None:
        self._steal_pending = False
        recovery = self.recovery
        created = recovery.migration_accepted(migration) if recovery else False
        if created is None:
            return  # a duplicated or retransmitted delivery
        for task in migration.tasks:
            self.stats.tasks_migrated_in += 1
            if self.obs is not None:
                self._emit(task.task_id, "task.migrated_in")
            self._adopt(task, created=created)
            task.status = TaskStatus.INACTIVE
            # what is "remote" changed with the move: recompute the
            # pull set relative to this worker's partition
            task.to_pull = {v for v in task.candidates if v not in self.vertex_table}
            self.task_buffer.append(task)
        self._flush_buffer(force=True)

    def _on_no_task(self) -> None:
        self._steal_pending = False
        if self.controller.finished or not self.idle:
            return
        self.sim.schedule(
            self.config.steal_retry_interval, self._maybe_request_steal
        )

    # ------------------------------------------------------------------
    # progress / aggregation (§5.1)
    # ------------------------------------------------------------------

    def progress_snapshot(self) -> ProgressReport:
        return ProgressReport(
            worker=self.worker_id,
            store_size=len(self.store),
            cmq_size=len(self.cmq),
            cpq_size=self.node.cores.queued,
            busy_cores=self.node.cores.busy_cores,
            buffer_size=len(self.task_buffer),
            idle=self.idle,
        )

    def send_progress(self) -> None:
        if not self.node.alive:
            return
        self._send(self.master_endpoint, self.progress_snapshot())

    def send_agg_report(self) -> None:
        if self.agg is None or not self.node.alive:
            return
        report = AggReport(worker=self.worker_id, partial=self.agg.local_partial)
        self._send(self.master_endpoint, report)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _send(self, dest: int, message) -> None:
        self.cluster.network.send(self.worker_id, dest, message.size_bytes(), message)

    def _on_message(self, message) -> None:
        payload = message.payload
        if isinstance(payload, PullRequest):
            vertices = tuple(
                self.vertex_table[vid]
                for vid in payload.vids
                if vid in self.vertex_table
            )
            response = PullResponse(vertices=vertices, seq=payload.seq)
            self._send(payload.requester, response)
        elif isinstance(payload, PullResponse):
            self._on_pull_response(payload)
        elif isinstance(payload, TaskMigration):
            self._on_migration(payload)
        elif isinstance(payload, NoTask):
            self._on_no_task()
        elif isinstance(payload, AggBroadcast):
            if self.agg is not None:
                self.agg.receive_global(payload.value)
        elif isinstance(payload, MigrateCommand):
            self.migrate_tasks_to(payload.dest, payload.count)
        elif self.recovery is None or not self.recovery.on_message(payload):
            # checkpoint commands, migration acks and membership notices
            raise TypeError(f"worker cannot handle {type(payload).__name__}")

