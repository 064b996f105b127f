"""Fault tolerance (paper §7): the only module that knows how a job
survives failures, armed only when the job has a failure plan or a
``checkpoint_interval`` (a fault-free job builds none of it).

:class:`WorkerRecovery` is one worker's side — snapshots to HDFS,
wipe-on-failure and restore and, under a failure plan, the
degraded-mode protocol: heartbeats, RPC and migration retransmit with
dedup, versioned membership — reached from ``SimWorker`` through a
few named hooks.  :class:`MasterRecovery` is the master's side — the
checkpoint ticks and, under a plan, the heartbeat suspect→confirm
monitor and the membership view — reached from ``Master`` through
``on_message`` and ``start_checkpoints``.  :class:`JobRecovery` is the
job's side: link faults, the failure injector and the re-admission
holds.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import (
    CheckpointCommand,
    Heartbeat,
    MembershipView,
    MigrationAck,
    PullRequest,
    PullResponse,
    TaskMigration,
    WorkerDown,
    WorkerUp,
)
from repro.core.task import Task, TaskStatus
from repro.obs.tracing import MASTER_TID
from repro.sim.failures import FailureInjector, FailurePlan
from repro.sim.hdfs import SimulatedHDFS
from repro.sim.network import LinkFaultModel

if TYPE_CHECKING:
    from repro.core.job import GMinerJob, JobController
    from repro.core.worker import SimWorker

#: Simulated seconds between worker heartbeats, and between the
#: master's monitor ticks.
HEARTBEAT_INTERVAL = 0.02
#: Heartbeat silence after which the master *suspects* a worker;
#: silence past twice this confirms the failure and triggers recovery.
#: Must comfortably exceed :data:`HEARTBEAT_INTERVAL` (2-4 intervals at
#: least) or ordinary jitter produces false positives.
SUSPECT_TIMEOUT = 0.08

#: Per-pull RPC timeout: an unanswered pull is retransmitted with
#: seeded exponential backoff + jitter after this many simulated seconds.
RPC_TIMEOUT = 0.05
#: Retries per backoff cycle.  An exhausted cycle does not abandon the
#: pull (that would lose the task): the worker cools down for one
#: maximum-backoff period and starts a fresh cycle, unless the owner has
#: been declared down (then the pull parks until ``WorkerUp``).
RPC_MAX_RETRIES = 4

#: The master's §7 obs counters, keyed by the trace instant that bumps
#: them (a fast reboot is both a detection and a re-admission).  Every
#: job with obs on registers them (:func:`master_counters`), at zero
#: when it arms no recovery, so its series set is the same either way.
MASTER_COUNTERS = {
    "checkpoint.epoch": ("gminer.checkpoint.epochs",),
    "worker.suspected": ("gminer.workers.suspected",),
    "worker.confirmed_down": ("gminer.failures.detected",),
    "worker.readmitted": ("gminer.workers.readmitted",),
    "worker.fast_reboot": ("gminer.failures.detected", "gminer.workers.readmitted"),
}
#: :class:`MasterRecovery` counters, in ``JobResult.stats`` order.
_MASTER_STATS = (
    "failures_detected",
    "workers_suspected",
    "readmissions",
    "stale_messages_dropped",
    "unknown_messages_dropped",
)


@dataclass
class _Outbound:
    """An unanswered pull RPC or an unacked task migration, resent to
    ``dest`` on a backoff timer until its response or ack arrives."""

    dest: int
    payload: Any  # the PullRequest or TaskMigration, resent as is
    attempts: int = 0
    timer: Any = None  # sim Event for the retransmit timeout


@dataclass
class RecoveryStats:
    """Degraded-mode protocol counters (zero without a failure plan)."""

    heartbeats_sent: int = 0
    rpc_retries: int = 0
    rpc_backoff_cycles: int = 0
    duplicate_responses_dropped: int = 0
    stale_responses_dropped: int = 0
    duplicate_migrations_dropped: int = 0
    migration_retransmits: int = 0


class WorkerRecovery:
    """One worker's checkpoints, restore and degraded-mode protocol."""

    def __init__(
        self, worker: "SimWorker", hdfs: SimulatedHDFS, plan: Optional[FailurePlan]
    ) -> None:
        self.worker = worker
        self.sim = worker.sim
        self.hdfs = hdfs
        # True under a failure plan.  A checkpoint-only recovery keeps
        # just the snapshots: it sends no heartbeat or ack and starts no
        # timer, so its runs stay byte-identical to a build without the
        # fault layer apart from the checkpoints themselves.
        self.protocol = protocol = plan is not None
        seed = plan.seed if protocol else 0
        self.stats = RecoveryStats()
        self._checkpoint: Optional[Dict[str, Any]] = None
        # ``incarnation`` counts reboots and rides on every heartbeat so
        # the master can detect crashes it never observed as silence
        self.incarnation = 0
        self._rng = random.Random(
            1_000_003 * (seed + 1) + 7_919 * (worker.worker_id + 1)
        )
        self._pending_rpcs: Dict[int, _Outbound] = {}
        self._completed_seqs: Set[int] = set()
        self._pending_migrations: Dict[int, _Outbound] = {}
        self._seen_migrations: Set[Tuple[int, int]] = set()
        # copies of tasks migrated out, kept so they can be re-injected
        # if the destination dies before checkpointing them: task
        # results are deterministic and deduplicated by task id, so
        # re-running a migrated task is always safe
        self.sent_tasks: Dict[int, List[Task]] = {}
        self.down_workers: Set[int] = set()
        #: task id -> vids it waits for from down workers
        self.parked: Dict[int, Set[int]] = {}
        # latest membership view applied; stale (reordered/duplicated)
        # WorkerDown/WorkerUp notices carry an older view and are dropped
        self._membership_view = -1
        if protocol:
            self.sim.schedule(HEARTBEAT_INTERVAL, self._heartbeat)

    # ------------------------------------------------------------------
    # hooks called by the worker's pipeline
    # ------------------------------------------------------------------

    def park_pulls(self, task_id: int, by_owner: Dict[int, List[int]]) -> None:
        """Take pulls aimed at down owners out of ``by_owner``: they wait
        for the owner's ``WorkerUp`` instead of being sent."""
        for owner in self.down_workers & by_owner.keys():
            self.parked.setdefault(task_id, set()).update(by_owner.pop(owner))

    def pull_sent(self, owner: int, request: PullRequest) -> None:
        """Start the retransmit timer of a pull RPC."""
        if not self.protocol:
            return
        seq = request.seq
        pending = self._pending_rpcs[seq] = _Outbound(dest=owner, payload=request)
        pending.timer = self.sim.schedule(
            self._delay(0), lambda: self._on_rpc_timeout(seq)
        )

    def response_accepted(self, response: PullResponse) -> bool:
        """False for a response the worker must drop: a duplicate of one
        already consumed, or one to an RPC cancelled by ``WorkerDown``."""
        if not self.protocol:
            return True
        if response.seq in self._completed_seqs:
            # at-least-once delivery: a duplicated or retransmitted
            # response for an RPC we already consumed
            self.stats.duplicate_responses_dropped += 1
            return False
        pending = self._pending_rpcs.pop(response.seq, None)
        if pending is None:
            self.stats.stale_responses_dropped += 1
            return False
        _cancel(pending)
        self._completed_seqs.add(response.seq)
        return True

    def migration_shipped(self, dest: int, migration: TaskMigration) -> None:
        """Log the shipped tasks and retransmit the migration until acked."""
        if not self.protocol:
            return
        worker = self.worker
        self.sent_tasks.setdefault(dest, []).extend(t.clone() for t in migration.tasks)
        # explicit in-flight accounting: the tasks leave this worker's
        # responsibility now and re-enter the live count when (an
        # incarnation of) the migration is applied.  The recovery hold
        # keeps the job from finishing while they are on the wire.
        worker.controller.tasks_lost(len(migration.tasks))
        worker.controller.begin_recovery()
        seq = migration.seq
        pending = self._pending_migrations[seq] = _Outbound(dest, migration)
        pending.timer = self.sim.schedule(
            self._delay(1), lambda: self._on_migration_timeout(seq)
        )

    def migration_accepted(self, migration: TaskMigration) -> Optional[bool]:
        """``None`` for a duplicate delivery the worker must drop; else
        whether the tasks re-enter the live count on adoption (the
        sender took them off it at ship time)."""
        if not self.protocol:
            return False
        worker = self.worker
        # always (re-)ack — the previous ack may have been lost
        worker._send(migration.source, MigrationAck(worker.worker_id, migration.seq))
        key = (migration.source, migration.seq)
        if key in self._seen_migrations:
            # applying it twice would double-run the tasks and corrupt
            # the global live count
            self.stats.duplicate_migrations_dropped += 1
            return None
        self._seen_migrations.add(key)
        return True

    def on_message(self, payload) -> bool:
        """Handle a fault/control message; False if it is not one."""
        if isinstance(payload, MigrationAck):
            self._on_migration_ack(payload)
        elif isinstance(payload, CheckpointCommand):
            self.take_checkpoint(payload.epoch)
        elif isinstance(payload, WorkerDown):
            self._apply_membership(payload.view, self.down_workers | {payload.worker})
        elif isinstance(payload, WorkerUp):
            self._apply_membership(payload.view, self.down_workers - {payload.worker})
        elif isinstance(payload, MembershipView):
            self._apply_membership(payload.view, set(payload.down), full=True)
        else:
            return False
        return True

    # ------------------------------------------------------------------
    # heartbeats; RPC and migration retransmit with seeded backoff
    # ------------------------------------------------------------------

    def _heartbeat(self) -> None:
        worker = self.worker
        if worker.controller.finished:
            return
        if worker.node.alive:
            beat = Heartbeat(worker=worker.worker_id, incarnation=self.incarnation)
            self.stats.heartbeats_sent += 1
            worker._send(worker.master_endpoint, beat)
        self.sim.schedule(HEARTBEAT_INTERVAL, self._heartbeat)

    def _delay(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter; the exponent is
        capped at :data:`RPC_MAX_RETRIES` so cool-down cycles cannot grow
        without bound."""
        exponent = min(attempt, RPC_MAX_RETRIES)
        base = RPC_TIMEOUT * (2.0 ** exponent)
        return base * (1.0 + 0.25 * self._rng.random())

    def _on_rpc_timeout(self, seq: int) -> None:
        worker = self.worker
        pending = self._pending_rpcs.get(seq)
        # (an RPC to a peer declared down was cancelled with its vids
        # parked, so every pending one targets a live-looking owner)
        if pending is None or not worker.node.alive or worker.controller.finished:
            return
        pending.attempts += 1
        if pending.attempts > RPC_MAX_RETRIES:
            # cycle exhausted.  Abandoning the pull would strand its
            # tasks forever, so instead rest for one maximum-backoff
            # period and start a fresh cycle.
            self.stats.rpc_backoff_cycles += 1
            pending.attempts = 0
            pending.timer = self.sim.schedule(
                self._delay(RPC_MAX_RETRIES), lambda: self._on_rpc_timeout(seq)
            )
            return
        self.stats.rpc_retries += 1
        if worker.obs is not None:
            worker._emit(-1, "task.rpc_retry")
            worker._m_retries.inc()
            worker.obs.tracer.instant(
                "rpc.retry",
                cat="rpc",
                tid=worker.worker_id,
                owner=pending.dest,
                attempt=pending.attempts,
            )
        self.worker._send(pending.dest, pending.payload)
        pending.timer = self.sim.schedule(
            self._delay(pending.attempts), lambda: self._on_rpc_timeout(seq)
        )

    def _on_migration_timeout(self, seq: int) -> None:
        pending = self._pending_migrations.get(seq)
        if pending is None or not self.worker.node.alive:
            return
        if pending.dest in self.down_workers:
            # the destination was declared down under us; the copies are
            # covered by ``sent_tasks`` re-injection, so settle the
            # migration here (normally ``_worker_down`` already did)
            self._settle_migrations(pending.dest)
            return
        pending.attempts += 1
        if pending.attempts > RPC_MAX_RETRIES:
            self.stats.rpc_backoff_cycles += 1
            pending.attempts = 0
        else:
            self.stats.migration_retransmits += 1
            if self.worker.obs is not None:
                self.worker._emit(-1, "task.rpc_retry")
            self.worker._send(pending.dest, pending.payload)
        pending.timer = self.sim.schedule(
            self._delay(max(pending.attempts, 1)),
            lambda: self._on_migration_timeout(seq),
        )

    def _on_migration_ack(self, ack: MigrationAck) -> None:
        pending = self._pending_migrations.pop(ack.seq, None)
        if pending is None:
            return  # ack retransmitted for a migration already settled
        _cancel(pending)
        self.worker.controller.end_recovery()

    def _settle_migrations(self, dest: Optional[int] = None) -> None:
        """Stop retransmitting the migrations to ``dest`` (all if None)
        and release their in-flight holds."""
        for _ in range(_drop(self._pending_migrations, dest)):
            self.worker.controller.end_recovery()

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def take_checkpoint(self, epoch: int) -> None:
        """Snapshot live tasks + results + aggregator partial to HDFS.

        Skipped while seeding is still running: a mid-seeding snapshot
        is not a consistent state (it records no scan position), and
        restoring it would silently drop every task seeded after it.
        With no checkpoint at all, recovery re-seeds from scratch, which
        is exact.
        """
        worker = self.worker
        if not worker.node.alive or not worker._seeding_done:
            return
        worker._flush_buffer(force=True)
        # a task can be finished but still in live_tasks: its last round
        # has run (state mutates at core dispatch) while the completion
        # callback that records the result and kills it fires only after
        # the round's simulated duration.  Snapshotting it as *live*
        # would make a restore re-execute a round past its lifetime (and
        # lose the result, which is not in worker.results yet) — so it
        # is checkpointed as completed instead
        tasks = []
        results = dict(worker.results)
        for t in worker.live_tasks.values():
            if t.finished:
                if t.result is not None:
                    results[t.task_id] = t.result
            else:
                tasks.append(t.clone())
        # sender-side logging: unacked outbound migrations are still
        # this worker's responsibility — without them, a crash after a
        # lost migration message would lose the tasks forever
        for pending in self._pending_migrations.values():
            tasks.extend(t.clone() for t in pending.payload.tasks)
        agg = worker.agg
        snapshot = {
            "tasks": tasks,
            "results": results,
            "agg_partial": copy.deepcopy(agg.local_partial) if agg else None,
            # the migration dedup ledger is durable state: it must stay
            # consistent with the task snapshot, else a retransmission
            # arriving after a restore would re-apply tasks the snapshot
            # already contains (double-count), or be wrongly suppressed
            "seen_migrations": set(self._seen_migrations),
        }
        size = sum(t.estimate_size() for t in worker.live_tasks.values()) + 64 * (
            len(worker.results) + 1
        )
        self._checkpoint = snapshot
        worker.stats.checkpoints += 1
        if worker.obs is not None:
            worker._m_checkpoints.inc()
            worker.obs.tracer.instant(
                "checkpoint.taken",
                cat="fault",
                tid=worker.worker_id,
                epoch=epoch,
                tasks=len(tasks),
            )
        self.hdfs.write(f"ckpt/{epoch}/worker-{worker.worker_id}", snapshot, size)
        worker.node.disk.write(size, lambda: None)

    def on_failure(self) -> int:
        """The node died: all volatile state is gone.  Returns the number
        of live tasks lost (the controller removes them from the global
        count until recovery restores the checkpoint)."""
        worker = self.worker
        lost = len(worker.live_tasks)
        # until recover() completes, this worker has no consistent state:
        # clearing the seeding flag blocks the checkpoint path, else a
        # CheckpointCommand arriving between the physical reboot and the
        # logical restore would snapshot the post-crash empty state and
        # shadow the real recovery source (re-seed or a prior snapshot)
        worker._seeding_done = False
        worker.live_tasks.clear()
        worker.cmq.clear()
        self.parked.clear()
        worker.inflight.clear()
        worker.task_buffer.clear()
        worker.overflow.clear()
        worker.store.drain_all()
        for cache in worker.caches:
            cache.drop_all()
        worker.results.clear()
        worker._steal_pending = False
        # volatile protocol state dies with the node.  The migration
        # dedup ledger is deliberately cleared too — amnesia is real,
        # and a retransmission arriving post-reboot must re-apply since
        # the first application was wiped.
        _drop(self._pending_rpcs)
        self._completed_seqs.clear()
        # release the in-flight holds: the tasks are either delivered
        # anyway (the message survives the sender), restored from this
        # worker's checkpoint (it snapshots unacked outbound
        # migrations), or re-run at the destination
        self._settle_migrations()
        self._seen_migrations.clear()
        return lost

    def recover(self, partition_bytes: int) -> int:
        """Reload partition + checkpoint and resume.  Returns the number
        of tasks restored into the live set."""
        worker = self.worker
        self.incarnation += 1
        worker.node.allocate(partition_bytes, "vertex table reload")
        if self._checkpoint is None:
            # died before the first snapshot: restart this worker's
            # share of the job from scratch by re-seeding
            worker._seeding_done = False
            worker.seed_tasks()
            return 0
        snapshot = self._checkpoint
        worker.results = dict(snapshot["results"])
        self._seen_migrations = set(snapshot["seen_migrations"])
        if worker.agg is not None and snapshot["agg_partial"] is not None:
            worker.agg.local_partial = copy.deepcopy(snapshot["agg_partial"])
        worker._seeding_done = True
        self._reinject((t.clone() for t in snapshot["tasks"]), created=False)
        return len(snapshot["tasks"])

    def _reinject(self, tasks, created: bool) -> None:
        """Adopt ``tasks`` as INACTIVE and send them through the store."""
        worker = self.worker
        for task in tasks:
            worker._adopt(task, created=created)
            task.status = TaskStatus.INACTIVE
            worker.task_buffer.append(task)
        worker._flush_buffer(force=True)

    # ------------------------------------------------------------------
    # versioned membership
    # ------------------------------------------------------------------

    def _apply_membership(self, view: int, down: Set[int], full: bool = False) -> None:
        """Reconcile against a versioned membership view from the master.

        Views are totally ordered: a notice below the last applied view
        is a straggler and is ignored, so a stale ``WorkerDown`` can
        never re-bury a recovered peer.  A ``WorkerDown``/``WorkerUp``
        changes the local view, whose base may have missed a lost
        notice; the periodic ``full`` view re-applies even at an equal
        number, so its diff heals the loss instead of wedging a pull.
        """
        if view < self._membership_view or (view == self._membership_view and not full):
            return
        self._membership_view = view
        down = set(down)
        down.discard(self.worker.worker_id)  # never act on our own obituary
        for peer in sorted(down - self.down_workers):
            self._worker_down(peer)
        for peer in sorted(self.down_workers - down):
            self._worker_up(peer)

    def _worker_down(self, dead: int) -> None:
        """Park pulls aimed at a dead worker until it comes back, and
        re-inject any task this worker migrated to the casualty."""
        worker = self.worker
        self.down_workers.add(dead)
        # cancel outstanding RPCs to the casualty: their vids park below
        # and re-issue as fresh RPCs on WorkerUp.  The copies of tasks
        # migrated to it are covered by ``sent_tasks`` re-injection.
        _drop(self._pending_rpcs, dead)
        self._settle_migrations(dead)
        for vid, waiters in worker.inflight.items():
            if worker.owner_of(vid) != dead:
                continue
            for task_id in waiters:
                pending = worker.cmq.get(task_id)
                if pending is not None and vid in pending.remaining:
                    self.parked.setdefault(task_id, set()).add(vid)
        # lazily filtered: a second logged copy of one task id is
        # skipped once the first is adopted
        copies = self.sent_tasks.pop(dead, [])
        self._reinject(
            (t for t in copies if t.task_id not in worker.live_tasks), created=True
        )

    def _worker_up(self, recovered: int) -> None:
        """Re-issue pulls that were parked while ``recovered`` was down."""
        worker = self.worker
        self.down_workers.discard(recovered)
        reissue: Set[int] = set()
        for task_id, vids in list(self.parked.items()):
            back = {vid for vid in vids if worker.owner_of(vid) == recovered}
            vids -= back
            reissue |= back
            if not vids:
                del self.parked[task_id]
        if reissue:
            worker._send_pull(recovered, sorted(reissue))


def _cancel(pending: _Outbound) -> None:
    if pending.timer is not None:
        pending.timer.cancel()


def _drop(table: Dict[int, _Outbound], dest: Optional[int] = None) -> int:
    """Cancel and forget every entry of ``table`` aimed at ``dest`` (all
    if None); returns how many."""
    doomed = [seq for seq, p in table.items() if dest is None or p.dest == dest]
    for seq in doomed:
        _cancel(table.pop(seq))
    return len(doomed)


def master_counters(registry) -> Dict[str, List[Any]]:
    """Register (get-or-create) the :data:`MASTER_COUNTERS`, by instant."""
    return {
        event: [registry.counter(name) for name in names]
        for event, names in MASTER_COUNTERS.items()
    }


class MasterRecovery:
    """The master's checkpoint ticks and, under a failure plan, its
    heartbeat suspect→confirm monitor and versioned membership view.

    ``Master`` hands every message to :meth:`on_message` first and
    reads who is down from :attr:`down_workers`; only this class writes
    membership.
    """

    def __init__(
        self,
        master,
        plan: Optional[FailurePlan],
        on_readmitted: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.master = master
        self.sim = master.sim
        self.controller = master.controller
        # as for WorkerRecovery: a checkpoint-only recovery only ticks
        # checkpoints and leaves every message to the master
        self.protocol = plan is not None
        self.checkpoint_epoch = 0
        self.view = 0  # membership version; bumps on every down/up change
        self.down_workers: Set[int] = set()
        self.last_heard: Dict[int, float] = {}
        self.suspected: Set[int] = set()
        self.incarnations: Dict[int, int] = {}
        self.failures_detected = 0
        self.workers_suspected = 0
        self.readmissions = 0
        self.stale_messages_dropped = 0
        self.unknown_messages_dropped = 0
        #: job-level hook fired whenever a down worker is re-admitted
        #: (used to release the recovery hold on job completion)
        self.on_worker_readmitted = on_readmitted
        self.obs = obs = master.obs
        if obs is not None:
            self._counters = master_counters(obs.registry)

    def _fault_event(self, name: str, tid: int, **args: Any) -> None:
        """Bump the counters of §7 instant ``name`` and trace it."""
        if self.obs is not None:
            for counter in self._counters[name]:
                counter.inc()
            self.obs.tracer.instant(name, cat="fault", tid=tid, **args)

    # ------------------------------------------------------------------
    # checkpoint commands
    # ------------------------------------------------------------------

    def start_checkpoints(self) -> None:
        """Arm the periodic checkpoint loop (called by ``Master.start``)."""
        interval = self.master.config.checkpoint_interval
        if interval is not None:
            self.sim.schedule(interval, self._checkpoint_tick)

    def _checkpoint_tick(self) -> None:
        if self.controller.finished:
            return
        self.checkpoint_epoch += 1
        self._fault_event("checkpoint.epoch", MASTER_TID, epoch=self.checkpoint_epoch)
        self.master._tell_live_workers(CheckpointCommand(epoch=self.checkpoint_epoch))
        self.sim.schedule(
            self.master.config.checkpoint_interval, self._checkpoint_tick
        )

    # ------------------------------------------------------------------
    # message filter
    # ------------------------------------------------------------------

    def on_message(self, message) -> bool:
        """True when §7 consumes ``message``: a heartbeat, a stale
        message from a worker declared down, or a straggler delivered
        after the job finished.  Any other message is a liveness signal
        and goes on to the master."""
        if not self.protocol:
            return False
        payload = message.payload
        if isinstance(payload, Heartbeat):
            self._on_heartbeat(payload.worker, payload.incarnation)
            return True
        sender = getattr(payload, "worker", message.src)
        if sender in self.down_workers:
            # a stale message from a worker we declared dead — e.g. one
            # that was in flight at the kill, or from a falsely-suspected
            # survivor behind a partition: dropped and counted (only a
            # heartbeat re-admits a down worker)
            self.stale_messages_dropped += 1
            return True
        if 0 <= message.src < self.master.num_workers:
            # any traffic is a liveness signal — the paper's master
            # infers death from *missing progress reports*, not only
            # from dedicated heartbeats
            self.last_heard[message.src] = self.sim.now
        if self.controller.finished and not isinstance(payload, self.master.HANDLES):
            # stragglers delivered after the job completed (duplicates,
            # reordered copies) are expected under chaos — drop, count
            self.unknown_messages_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # failure detection: the suspect→confirm heartbeat monitor
    # ------------------------------------------------------------------

    def start_failure_monitor(self) -> None:
        """Arm the heartbeat timeout monitor.

        Silence beyond :data:`SUSPECT_TIMEOUT` marks a worker *suspected*;
        beyond twice that, the failure is confirmed and the normal
        recovery machinery (``handle_worker_failure``) runs.  A
        heartbeat from a confirmed-down worker re-admits it through
        ``handle_worker_recovery`` — exactly the path a genuinely
        recovered node takes, so false positives heal themselves.
        """
        now = self.sim.now
        for worker in range(self.master.num_workers):
            self.last_heard[worker] = now
        self.sim.schedule(HEARTBEAT_INTERVAL, self._monitor_tick)

    def _monitor_tick(self) -> None:
        if self.controller.finished:
            return
        now = self.sim.now
        suspect_after = SUSPECT_TIMEOUT
        confirm_after = 2.0 * suspect_after
        for worker in range(self.master.num_workers):
            if worker in self.down_workers:
                continue
            silence = now - self.last_heard.get(worker, now)
            if silence > confirm_after:
                self.suspected.discard(worker)
                self.failures_detected += 1
                self._fault_event("worker.confirmed_down", worker, silence=silence)
                self.handle_worker_failure(worker)
            elif silence > suspect_after:
                if worker not in self.suspected:
                    self.suspected.add(worker)
                    self.workers_suspected += 1
                    self._fault_event("worker.suspected", worker, silence=silence)
            else:
                self.suspected.discard(worker)
        # gossip the full membership view every tick: any individual
        # WorkerDown/WorkerUp notice can be lost on a degraded fabric,
        # and a worker acting on a stale view would park pulls forever
        self.master._tell_live_workers(
            MembershipView(down=tuple(sorted(self.down_workers)), view=self.view)
        )
        self.sim.schedule(HEARTBEAT_INTERVAL, self._monitor_tick)

    def _on_heartbeat(self, worker: int, incarnation: int = 0) -> None:
        self.last_heard[worker] = self.sim.now
        known = self.incarnations.get(worker, 0)
        if worker in self.down_workers:
            # the casualty (or a falsely-suspected survivor) is talking
            # again: re-admission runs the same recovery broadcast path
            self.readmissions += 1
            self.incarnations[worker] = incarnation
            self._fault_event("worker.readmitted", worker)
            self.handle_worker_recovery(worker)
        elif incarnation > known:
            # the worker rebooted faster than the silence monitor could
            # confirm it dead — without this check its lost state would
            # never be re-spread (peers would keep their migrated-task
            # copies forever).  Run the full down→up path.
            self.failures_detected += 1
            self.readmissions += 1
            self.incarnations[worker] = incarnation
            self._fault_event("worker.fast_reboot", worker)
            self.handle_worker_failure(worker)
            self.handle_worker_recovery(worker)
        else:
            # a reordered stale heartbeat may carry an old incarnation;
            # never move the recorded incarnation backwards
            self.incarnations[worker] = max(known, incarnation)
            self.suspected.discard(worker)

    # ------------------------------------------------------------------
    # membership changes
    # ------------------------------------------------------------------

    def handle_worker_failure(self, worker: int) -> None:
        self.down_workers.add(worker)
        self.master.progress_table.pop(worker, None)
        self.view += 1
        self.master._tell_live_workers(WorkerDown(worker=worker, view=self.view))

    def handle_worker_recovery(self, worker: int) -> None:
        self.down_workers.discard(worker)
        self.suspected.discard(worker)
        self.last_heard[worker] = self.sim.now
        self.view += 1
        self.master._tell_live_workers(
            WorkerUp(worker=worker, view=self.view), skip=worker
        )
        if self.on_worker_readmitted is not None:
            self.on_worker_readmitted(worker)


class JobRecovery:
    """A job's side of §7, built only for a job with a failure plan or
    a ``checkpoint_interval``: arms every worker's
    :class:`WorkerRecovery` and, under a plan, the degraded-mode stack
    around them, and the master's :class:`MasterRecovery`.

    The *physical* layer (nodes halting, links degrading, reboots
    reloading the checkpoint) always runs from the injector — a dying
    node needs no detector to lose its memory.  How the rest of the
    cluster *finds out* is the protocol's job: the master's heartbeat
    suspect→confirm monitor (§7's "missing progress reports").
    """

    def __init__(self, job: "GMinerJob", controller: "JobController") -> None:
        self.job = job
        self.controller = controller
        self.plan = plan = job.failure_plan
        cluster, master = job.cluster, job.master
        hdfs = SimulatedHDFS(cluster.sim)
        for worker in job.workers:
            # under a plan this starts the heartbeats
            worker.recovery = WorkerRecovery(worker, hdfs, plan)
        master.recovery = MasterRecovery(master, plan, self._on_readmitted)
        if plan is None:
            return
        # degrade the fabric: seeded loss/duplication/reorder/slow-link/
        # partition behaviour, compiled from the declarative plan
        fault_model = plan.build_link_fault_model()
        if fault_model is not None:
            cluster.network.install_faults(fault_model)
        # a physical failure holds the job open until BOTH the reboot
        # finished restoring AND the master re-admitted the worker (else
        # completion could race the WorkerUp broadcast and strand
        # re-injected tasks)
        self._pending_readmit: Dict[int, int] = {}
        self._recovery_spans: Dict[int, Any] = {}
        master.recovery.start_failure_monitor()
        FailureInjector(
            cluster,
            plan,
            on_fail=self._on_fail,
            on_recover=self._on_recover,
            controller=controller,
        ).arm()

    def durable_partials(self) -> List[Any]:
        """The master's last-reported copy of each worker's aggregator
        partial, under a failure plan.

        The master never crashes in this fault model, so those copies
        are durable: a bound discovered, reported and then lost to a
        worker crash still reaches the final aggregate.  Only sound for
        idempotent/monotone merges (MCF's max), which is why it is
        gated to degraded runs.
        """
        if self.plan is None:
            return []
        return list(self.job.master.agg_partials.values())

    def _on_readmitted(self, worker_id: int) -> None:
        if self._pending_readmit.get(worker_id, 0) > 0:
            self._pending_readmit[worker_id] -= 1
            self.controller.end_recovery()

    def _on_fail(self, node_id: int) -> None:
        controller, obs = self.controller, self.job.obs
        controller.begin_recovery()  # released when the restore finishes
        controller.begin_recovery()  # released on re-admission
        self._pending_readmit[node_id] = self._pending_readmit.get(node_id, 0) + 1
        lost = self.job.workers[node_id].recovery.on_failure()
        controller.tasks_lost(lost)
        if obs is not None:
            obs.tracer.instant("worker.failed", cat="fault", tid=node_id, lost=lost)
            self._recovery_spans[node_id] = obs.tracer.begin(
                "worker.recovery", cat="fault", tid=node_id
            )

    def _on_recover(self, node_id: int) -> None:
        job, controller = self.job, self.controller
        worker = job.workers[node_id]
        sim = job.cluster.sim
        # reload partition + checkpoint from HDFS before resuming
        partition_bytes = sum(v.estimate_size() for v in worker.vertex_table.values())
        read_seconds = partition_bytes / 4e6 + 2e-3

        def restore():
            controller.tasks_restored(worker.recovery.recover(partition_bytes))
            job._arm_worker_tick(worker, controller)
            worker._pump_retriever()
            finish_restore()

        def finish_restore():
            # a pre-checkpoint death recovers by re-seeding, which runs
            # asynchronously on the cores: hold the job open until the
            # re-scan has re-created every task
            if worker._seeding_done:
                if job.obs is not None:
                    job.obs.tracer.finish(self._recovery_spans.pop(node_id, None))
                controller.end_recovery()
            else:
                sim.schedule(job.config.progress_interval, finish_restore)

        sim.schedule(read_seconds, restore)


def fault_stats(master, workers: List["SimWorker"], network) -> Dict[str, int]:
    """The job's degraded-mode counters (§7), in ``JobResult.stats``
    order; all zero on fault-free runs, so fingerprints stay stable."""
    # (an unarmed master's ``recovery`` is None: every counter reads 0)
    stats = {name: getattr(master.recovery, name, 0) for name in _MASTER_STATS}
    armed = [w.recovery.stats for w in workers if w.recovery is not None]
    for counter in fields(RecoveryStats):
        stats[counter.name] = sum(getattr(s, counter.name) for s in armed)
    # an unarmed fabric reports the same (zero) counters as an idle model
    stats.update((network.faults or LinkFaultModel([])).stats())
    return stats
