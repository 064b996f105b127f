"""A G-Miner worker: vertex table + the task pipeline (paper §4.3, §5.1).

One worker runs per cluster node.  It hosts:

* the **vertex table** (its graph partition),
* the **task store** (LSH-ordered priority queue, disk-backed),
* the **candidate retriever** (CMQ + RCV cache + remote pulls),
* the **task executor** (compute pool + task buffer),
* the request listener (serving pulls and migrations from peers),
* the progress reporter and checkpoint logic.

The three pipeline stages share no barrier: the retriever keeps the
CMQ primed while cores crunch tasks and the disk spills/loads store
blocks, which is exactly the overlap Figure 6 shows.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.aggregator import AggregatorState
from repro.core.api import GMinerApp
from repro.core.config import GMinerConfig
from repro.core.lsh import MinHashLSH
from repro.core.master import HEARTBEAT_INTERVAL
from repro.core.messages import (
    AggBroadcast,
    AggReport,
    CheckpointCommand,
    Heartbeat,
    MembershipView,
    MigrateCommand,
    MigrationAck,
    NoTask,
    ProgressReport,
    PullRequest,
    PullResponse,
    StealRequest,
    TaskMigration,
    WorkerDown,
    WorkerUp,
)
from repro.core.rcv_cache import CachePolicy, RCVCache
from repro.core.task import Task, TaskEnv, TaskStatus
from repro.core.task_store import TaskStore
from repro.graph.graph import VertexData
from repro.sim.cluster import Cluster, Node

#: A task-store block also splits past this many bytes, so heavy tasks
#: (GC growers, GM partial-embedding sets) cannot balloon the one
#: in-memory head block — the store's whole point is bounding memory
#: (§4.3).
STORE_BLOCK_BYTES = 262_144
#: Per-pull RPC timeout: an unanswered pull is retransmitted with
#: seeded exponential backoff + jitter after this many simulated seconds.
RPC_TIMEOUT = 0.05
#: Retries per backoff cycle.  An exhausted cycle does not abandon the
#: pull (that would lose the task): the worker cools down for one
#: maximum-backoff period and starts a fresh cycle, unless the owner has
#: been declared down (then the pull parks until ``WorkerUp``).
RPC_MAX_RETRIES = 4


@dataclass
class _PendingPull:
    """A CMQ entry: a task waiting for remote candidates."""

    task: Task
    remaining: Set[int] = field(default_factory=set)  # vids not yet available
    parked: Set[int] = field(default_factory=set)  # vids owned by down workers


@dataclass
class _PendingRpc:
    """An outstanding pull RPC awaiting its (seq-matched) response."""

    owner: int
    vids: Tuple[int, ...]
    attempts: int = 0
    timer: Any = None  # sim Event for the retransmit timeout


@dataclass
class _PendingMigration:
    """An unacked outbound TaskMigration, retransmitted until acked."""

    dest: int
    migration: TaskMigration
    attempts: int = 0
    timer: Any = None


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
    # -- degraded-mode protocol counters (all zero on fault-free runs) --
    heartbeats_sent: int = 0
    rpc_retries: int = 0
    rpc_backoff_cycles: int = 0
    duplicate_responses_dropped: int = 0
    stale_responses_dropped: int = 0
    duplicate_migrations_dropped: int = 0
    migration_retransmits: int = 0


class SimWorker:
    """One G-Miner worker process on a simulated node."""

    def __init__(
        self,
        worker_id: int,
        node: Node,
        cluster: Cluster,
        config: GMinerConfig,
        app: GMinerApp,
        controller: "JobControllerProtocol",
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
        self.down_workers: Set[int] = set()
        # copies of tasks migrated out, kept so they can be re-injected
        # if the destination dies before checkpointing them (§7): task
        # results are deterministic and deduplicated by task id, so
        # re-running a migrated task is always safe
        self.sent_tasks: Dict[int, List[Task]] = {}
        self.stats = WorkerStats()
        self._steal_pending = False
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._seeding_done = False
        self.hdfs = None  # set by GMinerJob (checkpoint target)
        #: :class:`repro.obs.ObsSession` when observability is on;
        #: ``None`` keeps every instrumented site to a single branch.
        self.obs = None
        #: :class:`repro.verify.InvariantMonitor` when invariant
        #: checking is armed; ``None`` keeps each recording site to a
        #: single branch.  The monitor double-entry accounts the work
        #: units this worker hands to its core pool so barrier checks
        #: can compare them against the pool's own accumulator.
        self.verify = None

        # -- degraded-mode protocol state (§7) --------------------------
        # Dormant unless a failure plan is armed: fault-free runs issue
        # no heartbeats, start no RPC timers and track no dedup state,
        # so they stay byte-identical to a build without the fault
        # layer.  ``incarnation`` counts reboots and rides on every
        # heartbeat so the master can detect crashes it never observed
        # as silence.
        self.faults_enabled = False
        self.incarnation = 0
        self._rpc_rng: Optional[random.Random] = None
        self._next_seq = 0
        self._pending_rpcs: Dict[int, _PendingRpc] = {}
        self._completed_seqs: Set[int] = set()
        self._pending_migrations: Dict[int, _PendingMigration] = {}
        self._seen_migrations: Set[Tuple[int, int]] = set()
        # latest membership view applied; stale (reordered/duplicated)
        # WorkerDown/WorkerUp notices carry an older view and are dropped
        self._membership_view = -1

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
        cpq_limit = self.config.cpq_per_core * self.node.cores.cores
        while (
            len(self.cmq) < self.config.max_inflight_tasks
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
            owner = self.owner_of(vid)
            if owner in self.down_workers:
                pending.parked.add(vid)
            else:
                by_owner.setdefault(owner, []).append(vid)
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
        if self.faults_enabled:
            pending = _PendingRpc(owner=owner, vids=request.vids)
            self._pending_rpcs[seq] = pending
            pending.timer = self.sim.schedule(
                self._rpc_delay(0), lambda: self._on_rpc_timeout(seq)
            )
        self.cluster.network.send(
            self.worker_id, owner, request.size_bytes(), request
        )

    # ------------------------------------------------------------------
    # RPC robustness (§7): timeout, seeded backoff, dedup
    # ------------------------------------------------------------------

    def enable_fault_tolerance(self, seed: int = 0) -> None:
        """Arm the degraded-mode protocol: heartbeats to the master,
        per-pull retransmit timers and duplicate suppression.  Called by
        :class:`GMinerJob` exactly when a failure plan exists, keeping
        fault-free runs byte-identical to the legacy path."""
        self.faults_enabled = True
        self._rpc_rng = random.Random(
            1_000_003 * (seed + 1) + 7_919 * (self.worker_id + 1)
        )
        self._arm_heartbeat()

    def _arm_heartbeat(self) -> None:
        def tick() -> None:
            if self.controller.finished:
                return
            if self.node.alive:
                beat = Heartbeat(
                    worker=self.worker_id, incarnation=self.incarnation
                )
                self.stats.heartbeats_sent += 1
                self.cluster.network.send(
                    self.worker_id, self.master_endpoint, beat.size_bytes(), beat
                )
            self.sim.schedule(HEARTBEAT_INTERVAL, tick)

        self.sim.schedule(HEARTBEAT_INTERVAL, tick)

    def _rpc_delay(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter; the exponent is
        capped at :data:`RPC_MAX_RETRIES` so cool-down cycles cannot grow
        without bound."""
        exponent = min(attempt, RPC_MAX_RETRIES)
        base = RPC_TIMEOUT * (2.0 ** exponent)
        return base * (1.0 + 0.25 * self._rpc_rng.random())

    def _on_rpc_timeout(self, seq: int) -> None:
        pending = self._pending_rpcs.get(seq)
        if pending is None or not self.node.alive or self.controller.finished:
            return
        if pending.owner in self.down_workers:
            # the master declared the owner dead after this pull went
            # out: its vids are parked (``on_worker_down``) and will be
            # re-issued as a fresh RPC on ``WorkerUp``
            del self._pending_rpcs[seq]
            return
        pending.attempts += 1
        if pending.attempts > RPC_MAX_RETRIES:
            # cycle exhausted.  Abandoning the pull would strand its
            # tasks forever, so instead rest for one maximum-backoff
            # period and start a fresh cycle.
            self.stats.rpc_backoff_cycles += 1
            pending.attempts = 0
            pending.timer = self.sim.schedule(
                self._rpc_delay(RPC_MAX_RETRIES),
                lambda: self._on_rpc_timeout(seq),
            )
            return
        self.stats.rpc_retries += 1
        if self.obs is not None:
            self._emit(-1, "task.rpc_retry")
            self._m_retries.inc()
            self.obs.tracer.instant(
                "rpc.retry",
                cat="rpc",
                tid=self.worker_id,
                owner=pending.owner,
                attempt=pending.attempts,
            )
        request = PullRequest(
            requester=self.worker_id, vids=pending.vids, seq=seq
        )
        self.cluster.network.send(
            self.worker_id, pending.owner, request.size_bytes(), request
        )
        pending.timer = self.sim.schedule(
            self._rpc_delay(pending.attempts), lambda: self._on_rpc_timeout(seq)
        )

    def _on_pull_response(self, response: PullResponse) -> None:
        if self.obs is not None:
            # pop handles duplicates: a retransmitted response finds no
            # open span and records nothing twice
            span = self._rpc_spans.pop(response.seq, None)
            if span is not None:
                self.obs.tracer.finish(span)
                self._h_pull_wait.observe(span.end - span.start)
        if self.faults_enabled:
            if response.seq in self._completed_seqs:
                # at-least-once delivery: a duplicated or retransmitted
                # response for an RPC we already consumed
                self.stats.duplicate_responses_dropped += 1
                return
            pending = self._pending_rpcs.pop(response.seq, None)
            if pending is None:
                # response to an RPC cancelled by WorkerDown/failure
                self.stats.stale_responses_dropped += 1
                return
            if pending.timer is not None:
                pending.timer.cancel()
            self._completed_seqs.add(response.seq)
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
                pending.parked.discard(vid)
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
        request = StealRequest(worker=self.worker_id)
        self.cluster.network.send(
            self.worker_id, self.master_endpoint, request.size_bytes(), request
        )

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
            notice = NoTask(source=self.worker_id)
            self.cluster.network.send(
                self.worker_id, dest, notice.size_bytes(), notice
            )
            return
        for task in tasks:
            self.live_tasks.pop(task.task_id, None)
            self.node.free(task._accounted_size)
            self.stats.tasks_migrated_out += 1
            if self.obs is not None:
                self._emit(task.task_id, "task.migrated_out")
            self.sent_tasks.setdefault(dest, []).append(task.clone())
        seq = self._next_seq
        self._next_seq += 1
        migration = TaskMigration(source=self.worker_id, tasks=tasks, seq=seq)
        if self.faults_enabled:
            # explicit in-flight accounting: the tasks leave this
            # worker's responsibility now and re-enter the live count
            # when (an incarnation of) the migration is applied.  The
            # recovery hold keeps the job from finishing while they are
            # on the wire.
            self.controller.tasks_lost(len(tasks))
            self.controller.begin_recovery()
            pending = _PendingMigration(dest=dest, migration=migration)
            self._pending_migrations[seq] = pending
            pending.timer = self.sim.schedule(
                self._rpc_delay(1), lambda: self._on_migration_timeout(seq)
            )
        self.cluster.network.send(
            self.worker_id, dest, migration.size_bytes(), migration
        )

    def _on_migration_timeout(self, seq: int) -> None:
        pending = self._pending_migrations.get(seq)
        if pending is None or not self.node.alive:
            return
        if pending.dest in self.down_workers:
            # the destination was declared down under us; the copies are
            # covered by ``sent_tasks`` re-injection, so settle the
            # migration here (normally ``on_worker_down`` already did)
            self._cancel_pending_migrations_to(pending.dest)
            return
        pending.attempts += 1
        if pending.attempts > RPC_MAX_RETRIES:
            self.stats.rpc_backoff_cycles += 1
            pending.attempts = 0
        else:
            self.stats.migration_retransmits += 1
            if self.obs is not None:
                self._emit(-1, "task.rpc_retry")
            migration = pending.migration
            self.cluster.network.send(
                self.worker_id, pending.dest, migration.size_bytes(), migration
            )
        pending.timer = self.sim.schedule(
            self._rpc_delay(max(pending.attempts, 1)),
            lambda: self._on_migration_timeout(seq),
        )

    def _on_migration_ack(self, ack: MigrationAck) -> None:
        pending = self._pending_migrations.pop(ack.seq, None)
        if pending is None:
            return  # ack retransmitted for a migration already settled
        if pending.timer is not None:
            pending.timer.cancel()
        self.controller.end_recovery()

    def _cancel_pending_migrations_to(self, dest: int) -> None:
        """The destination was declared down: stop retransmitting.  The
        in-flight copies are covered by ``sent_tasks`` re-injection."""
        for seq, pending in list(self._pending_migrations.items()):
            if pending.dest != dest:
                continue
            if pending.timer is not None:
                pending.timer.cancel()
            del self._pending_migrations[seq]
            self.controller.end_recovery()

    def _on_migration(self, migration: TaskMigration) -> None:
        self._steal_pending = False
        if self.faults_enabled:
            # always (re-)ack — the previous ack may have been lost
            ack = MigrationAck(worker=self.worker_id, seq=migration.seq)
            self.cluster.network.send(
                self.worker_id, migration.source, ack.size_bytes(), ack
            )
            key = (migration.source, migration.seq)
            if key in self._seen_migrations:
                # a duplicated or retransmitted delivery: applying it
                # twice would double-run the tasks and corrupt the
                # global live count
                self.stats.duplicate_migrations_dropped += 1
                return
            self._seen_migrations.add(key)
        for task in migration.tasks:
            self.stats.tasks_migrated_in += 1
            if self.obs is not None:
                self._emit(task.task_id, "task.migrated_in")
            # under faults the count pairs with the sender's
            # ``tasks_lost`` at ship time
            self._adopt(task, created=self.faults_enabled)
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
        report = self.progress_snapshot()
        self.cluster.network.send(
            self.worker_id, self.master_endpoint, report.size_bytes(), report
        )

    def send_agg_report(self) -> None:
        if self.agg is None or not self.node.alive:
            return
        report = AggReport(worker=self.worker_id, partial=self.agg.local_partial)
        self.cluster.network.send(
            self.worker_id, self.master_endpoint, report.size_bytes(), report
        )

    # ------------------------------------------------------------------
    # fault tolerance (§7)
    # ------------------------------------------------------------------

    def take_checkpoint(self, hdfs, epoch: int) -> None:
        """Snapshot live tasks + results + aggregator partial to HDFS.

        Skipped while seeding is still running: a mid-seeding snapshot
        is not a consistent state (it records no scan position), and
        restoring it would silently drop every task seeded after it.
        With no checkpoint at all, recovery re-seeds from scratch, which
        is exact.
        """
        if not self.node.alive or not self._seeding_done:
            return
        self._flush_buffer(force=True)
        # a task can be finished but still in live_tasks: its last round
        # has run (state mutates at core dispatch) while the completion
        # callback that records the result and kills it fires only after
        # the round's simulated duration.  Snapshotting it as *live*
        # would make a restore re-execute a round past its lifetime (and
        # lose the result, which is not in self.results yet) — so it is
        # checkpointed as completed instead
        tasks = []
        results = dict(self.results)
        for t in self.live_tasks.values():
            if t.finished:
                if t.result is not None:
                    results[t.task_id] = t.result
            else:
                tasks.append(t.clone())
        # sender-side logging: unacked outbound migrations are still
        # this worker's responsibility — without them, a crash after a
        # lost migration message would lose the tasks forever
        for pending in self._pending_migrations.values():
            tasks.extend(t.clone() for t in pending.migration.tasks)
        snapshot = {
            "tasks": tasks,
            "results": results,
            "agg_partial": copy.deepcopy(self.agg.local_partial) if self.agg else None,
            # the migration dedup ledger is durable state: it must stay
            # consistent with the task snapshot, else a retransmission
            # arriving after a restore would re-apply tasks the snapshot
            # already contains (double-count), or be wrongly suppressed
            "seen_migrations": set(self._seen_migrations),
        }
        size = sum(t.estimate_size() for t in self.live_tasks.values()) + 64 * (
            len(self.results) + 1
        )
        self._checkpoint = snapshot
        self.stats.checkpoints += 1
        if self.obs is not None:
            self._m_checkpoints.inc()
            self.obs.tracer.instant(
                "checkpoint.taken",
                cat="fault",
                tid=self.worker_id,
                epoch=epoch,
                tasks=len(tasks),
            )
        hdfs.write(f"ckpt/{epoch}/worker-{self.worker_id}", snapshot, size)
        self.node.disk.write(size, lambda: None)

    def on_failure(self) -> int:
        """The node died: all volatile state is gone.  Returns the number
        of live tasks lost (the controller removes them from the global
        count until recovery restores the checkpoint)."""
        lost = len(self.live_tasks)
        # until recover() completes, this worker has no consistent state:
        # clearing the seeding flag blocks the checkpoint path, else a
        # CheckpointCommand arriving between the physical reboot and the
        # logical restore would snapshot the post-crash empty state and
        # shadow the real recovery source (re-seed or a prior snapshot)
        self._seeding_done = False
        self.live_tasks.clear()
        self.cmq.clear()
        self.inflight.clear()
        self.task_buffer.clear()
        self.overflow.clear()
        self.store.drain_all()
        for cache in self.caches:
            cache.drop_all()
        self.results.clear()
        self._steal_pending = False
        # volatile protocol state dies with the node.  The migration
        # dedup ledger is deliberately cleared too — amnesia is real,
        # and a retransmission arriving post-reboot must re-apply since
        # the first application was wiped.
        for pending in self._pending_rpcs.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending_rpcs.clear()
        self._completed_seqs.clear()
        for pending in self._pending_migrations.values():
            if pending.timer is not None:
                pending.timer.cancel()
            # release the in-flight hold: the tasks are either delivered
            # anyway (the message survives the sender), restored from
            # this worker's checkpoint (it snapshots unacked outbound
            # migrations), or re-run at the destination
            self.controller.end_recovery()
        self._pending_migrations.clear()
        self._seen_migrations.clear()
        return lost

    def recover(self, hdfs, recovery_latency_cb: Optional[Callable[[], None]] = None) -> int:
        """Reload partition + checkpoint and resume.  Returns the number
        of tasks restored into the live set."""
        self.incarnation += 1
        total = sum(v.estimate_size() for v in self.vertex_table.values())
        self.node.allocate(total, "vertex table reload")
        if self._checkpoint is None:
            # died before the first snapshot: restart this worker's
            # share of the job from scratch by re-seeding
            self._seeding_done = False
            self.seed_tasks()
            if recovery_latency_cb is not None:
                recovery_latency_cb()
            return 0
        snapshot = self._checkpoint
        restored = 0
        self.results = dict(snapshot["results"])
        self._seen_migrations = set(snapshot.get("seen_migrations", ()))
        if self.agg is not None and snapshot["agg_partial"] is not None:
            self.agg.local_partial = copy.deepcopy(snapshot["agg_partial"])
        for task in snapshot["tasks"]:
            task = task.clone()
            self._adopt(task, created=False)
            task.status = TaskStatus.INACTIVE
            self.task_buffer.append(task)
            restored += 1
        self._seeding_done = True
        self._flush_buffer(force=True)
        if recovery_latency_cb is not None:
            recovery_latency_cb()
        return restored

    def _apply_membership(self, view: int, down: Set[int]) -> None:
        """Reconcile against a versioned membership view from the master.

        Views are totally ordered; anything at or below the last applied
        view is a duplicated or reordered straggler and is ignored, so a
        stale ``WorkerDown`` can never re-bury a recovered peer.  The
        reconcile itself is a diff, which makes lost individual notices
        harmless: the next periodic ``MembershipView`` carries the same
        information.
        """
        if view <= self._membership_view:
            return
        self._membership_view = view
        down = set(down)
        down.discard(self.worker_id)  # never act on our own obituary
        for worker in sorted(down - self.down_workers):
            self.on_worker_down(worker)
        for worker in sorted(self.down_workers - down):
            self.on_worker_up(worker)

    def on_worker_down(self, dead: int) -> None:
        """Park pulls aimed at a dead worker until it comes back, and
        re-inject any task this worker migrated to the casualty."""
        if dead in self.down_workers:
            return  # duplicated notice; the transition already ran
        self.down_workers.add(dead)
        # cancel outstanding RPCs to the casualty: their vids park below
        # and re-issue as fresh RPCs on WorkerUp
        for seq, pending in list(self._pending_rpcs.items()):
            if pending.owner != dead:
                continue
            if pending.timer is not None:
                pending.timer.cancel()
            del self._pending_rpcs[seq]
        self._cancel_pending_migrations_to(dead)
        for vid, waiters in list(self.inflight.items()):
            if self.owner_of(vid) != dead:
                continue
            for task_id in waiters:
                pending = self.cmq.get(task_id)
                if pending is not None and vid in pending.remaining:
                    pending.parked.add(vid)
        for task in self.sent_tasks.pop(dead, []):
            if task.task_id in self.live_tasks:
                continue
            self._adopt(task)
            task.status = TaskStatus.INACTIVE
            self.task_buffer.append(task)
        self._flush_buffer(force=True)

    def on_worker_up(self, recovered: int) -> None:
        """Re-issue pulls that were parked while ``recovered`` was down."""
        if recovered not in self.down_workers:
            return  # duplicated notice; the transition already ran
        self.down_workers.discard(recovered)
        reissue: Set[int] = set()
        for pending in self.cmq.values():
            for vid in sorted(pending.parked):
                if self.owner_of(vid) == recovered:
                    pending.parked.discard(vid)
                    reissue.add(vid)
        if reissue:
            self._send_pull(recovered, sorted(reissue))

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, message) -> None:
        payload = message.payload
        if isinstance(payload, PullRequest):
            vertices = tuple(
                self.vertex_table[vid]
                for vid in payload.vids
                if vid in self.vertex_table
            )
            response = PullResponse(vertices=vertices, seq=payload.seq)
            self.cluster.network.send(
                self.worker_id, payload.requester, response.size_bytes(), response
            )
        elif isinstance(payload, PullResponse):
            self._on_pull_response(payload)
        elif isinstance(payload, TaskMigration):
            self._on_migration(payload)
        elif isinstance(payload, MigrationAck):
            self._on_migration_ack(payload)
        elif isinstance(payload, NoTask):
            self._on_no_task()
        elif isinstance(payload, AggBroadcast):
            if self.agg is not None:
                self.agg.receive_global(payload.value)
        elif isinstance(payload, MigrateCommand):
            self.migrate_tasks_to(payload.dest, payload.count)
        elif isinstance(payload, CheckpointCommand):
            if self.hdfs is not None:
                self.take_checkpoint(self.hdfs, payload.epoch)
        elif isinstance(payload, WorkerDown):
            if payload.view >= 0:
                self._apply_membership(
                    payload.view, self.down_workers | {payload.worker}
                )
            else:
                self.on_worker_down(payload.worker)
        elif isinstance(payload, WorkerUp):
            if payload.view >= 0:
                self._apply_membership(
                    payload.view, self.down_workers - {payload.worker}
                )
            else:
                self.on_worker_up(payload.worker)
        elif isinstance(payload, MembershipView):
            self._apply_membership(payload.view, set(payload.down))
        else:
            raise TypeError(f"worker cannot handle {type(payload).__name__}")


class JobControllerProtocol:
    """What workers need from the job controller (documented interface)."""

    finished: bool

    def task_created(self) -> None:
        raise NotImplementedError

    def task_dead(self) -> None:
        raise NotImplementedError

    def seeding_finished(self, worker_id: int) -> None:
        raise NotImplementedError
