"""The G-Miner master (paper §5.1).

The master owns cluster-wide coordination: the progress collector and
scheduler (driving task stealing), the global aggregator merge and
broadcast, periodic checkpoint commands, and failure handling.  It is a
network endpoint without a modelled core pool — its work is negligible
next to mining.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.core.aggregator import Aggregator
from repro.core.config import GMinerConfig
from repro.core.messages import (
    AggBroadcast,
    AggReport,
    CheckpointCommand,
    Heartbeat,
    MembershipView,
    MigrateCommand,
    NoTask,
    ProgressReport,
    StealRequest,
    WorkerDown,
    WorkerUp,
)
from repro.sim.cluster import Cluster

#: Simulated seconds between worker heartbeats, and between the
#: master's monitor ticks.
HEARTBEAT_INTERVAL = 0.02
#: Heartbeat silence after which the master *suspects* a worker;
#: silence past twice this confirms the failure and triggers recovery.
#: Must comfortably exceed :data:`HEARTBEAT_INTERVAL` (2-4 intervals at
#: least) or ordinary jitter produces false positives.
SUSPECT_TIMEOUT = 0.08


class Master:
    """Coordinator for one G-Miner job."""

    def __init__(
        self,
        cluster: Cluster,
        config: GMinerConfig,
        num_workers: int,
        endpoint: int,
        aggregator: Optional[Aggregator],
        controller,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config
        self.num_workers = num_workers
        self.endpoint = endpoint
        self.aggregator = aggregator
        self.controller = controller
        self.progress_table: Dict[int, ProgressReport] = {}
        self.agg_partials: Dict[int, Any] = {}
        self.down_workers: Set[int] = set()
        self.steals_brokered = 0
        self.no_task_replies = 0
        self.checkpoint_epoch = 0
        # -- failure detection (§7): heartbeat suspect→confirm monitor --
        self.view = 0  # membership version; bumps on every down/up change
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
        self.on_worker_readmitted = None
        #: :class:`repro.obs.ObsSession` when observability is on;
        #: ``None`` keeps every instrumented site to a single branch.
        self.obs = None
        #: :class:`repro.verify.InvariantMonitor` when invariant
        #: checking is armed; barrier checks read the membership state
        #: above (view monotonicity, suspected/down disjointness).
        self.verify = None
        cluster.network.register_handler(endpoint, self._on_message)

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.ObsSession` into the master.

        Like the worker hook, strictly read-only over the simulation.
        """
        from repro.obs.tracing import MASTER_TID

        self.obs = obs
        self._obs_tid = MASTER_TID
        registry = obs.registry
        self._m_steals = registry.counter("gminer.steals.brokered")
        self._m_no_task = registry.counter("gminer.steals.no_task")
        self._m_ckpt_epochs = registry.counter("gminer.checkpoint.epochs")
        self._m_suspected = registry.counter("gminer.workers.suspected")
        self._m_confirmed = registry.counter("gminer.failures.detected")
        self._m_readmitted = registry.counter("gminer.workers.readmitted")

    # ------------------------------------------------------------------
    # periodic coordination loops
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic aggregation and checkpoint loops."""
        if self.aggregator is not None:
            self.sim.schedule(self.config.agg_interval, self._agg_tick)
        if self.config.checkpoint_interval is not None:
            self.sim.schedule(self.config.checkpoint_interval, self._checkpoint_tick)

    def _agg_tick(self) -> None:
        if self.controller.finished:
            return
        if self.agg_partials:
            merged = self.aggregator.merge_all(self.agg_partials.values())
            broadcast = AggBroadcast(value=merged)
            for worker in range(self.num_workers):
                if worker not in self.down_workers:
                    self.cluster.network.send(
                        self.endpoint, worker, broadcast.size_bytes(), broadcast
                    )
        self.sim.schedule(self.config.agg_interval, self._agg_tick)

    def _checkpoint_tick(self) -> None:
        if self.controller.finished:
            return
        self.checkpoint_epoch += 1
        if self.obs is not None:
            self._m_ckpt_epochs.inc()
            self.obs.tracer.instant(
                "checkpoint.epoch",
                cat="fault",
                tid=self._obs_tid,
                epoch=self.checkpoint_epoch,
            )
        command = CheckpointCommand(epoch=self.checkpoint_epoch)
        for worker in range(self.num_workers):
            if worker not in self.down_workers:
                self.cluster.network.send(
                    self.endpoint, worker, command.size_bytes(), command
                )
        self.sim.schedule(self.config.checkpoint_interval, self._checkpoint_tick)

    # ------------------------------------------------------------------
    # task stealing: the progress scheduler (§6.2)
    # ------------------------------------------------------------------

    def _handle_steal_request(self, request: StealRequest) -> None:
        victim = self._most_loaded_worker(exclude=request.worker)
        if victim is None:
            self.no_task_replies += 1
            if self.obs is not None:
                self._m_no_task.inc()
            reply = NoTask(source=-1)
            self.cluster.network.send(
                self.endpoint, request.worker, reply.size_bytes(), reply
            )
            return
        self.steals_brokered += 1
        if self.obs is not None:
            self._m_steals.inc()
        command = MigrateCommand(dest=request.worker, count=self.config.steal_batch)
        self.cluster.network.send(
            self.endpoint, victim, command.size_bytes(), command
        )

    def _most_loaded_worker(self, exclude: int) -> Optional[int]:
        best: Optional[int] = None
        best_load = 0
        for worker, report in self.progress_table.items():
            if worker == exclude or worker in self.down_workers:
                continue
            load = report.store_size
            if load > best_load:
                best_load = load
                best = worker
        return best

    # ------------------------------------------------------------------
    # failure detection (§7): the suspect→confirm heartbeat monitor
    # ------------------------------------------------------------------

    def start_failure_monitor(self) -> None:
        """Arm the heartbeat timeout monitor.

        Silence beyond :data:`SUSPECT_TIMEOUT` marks a worker *suspected*;
        beyond twice that, the failure is confirmed and the normal
        recovery machinery (``handle_worker_failure``) runs.  A
        heartbeat from a confirmed-down worker re-admits it through
        ``handle_worker_recovery`` — exactly the path a genuinely
        recovered node takes, so false positives heal themselves.

        Only armed when a failure plan exists: fault-free runs carry no
        heartbeat traffic and stay byte-identical to a build without
        the fault layer.
        """
        now = self.sim.now
        for worker in range(self.num_workers):
            self.last_heard[worker] = now
        self.sim.schedule(HEARTBEAT_INTERVAL, self._monitor_tick)

    def _monitor_tick(self) -> None:
        if self.controller.finished:
            return
        now = self.sim.now
        suspect_after = SUSPECT_TIMEOUT
        confirm_after = 2.0 * suspect_after
        for worker in range(self.num_workers):
            if worker in self.down_workers:
                continue
            silence = now - self.last_heard.get(worker, now)
            if silence > confirm_after:
                self.suspected.discard(worker)
                self.failures_detected += 1
                if self.obs is not None:
                    self._m_confirmed.inc()
                    self.obs.tracer.instant(
                        "worker.confirmed_down",
                        cat="fault",
                        tid=worker,
                        silence=silence,
                    )
                self.handle_worker_failure(worker)
            elif silence > suspect_after:
                if worker not in self.suspected:
                    self.suspected.add(worker)
                    self.workers_suspected += 1
                    if self.obs is not None:
                        self._m_suspected.inc()
                        self.obs.tracer.instant(
                            "worker.suspected",
                            cat="fault",
                            tid=worker,
                            silence=silence,
                        )
            else:
                self.suspected.discard(worker)
        # gossip the full membership view every tick: any individual
        # WorkerDown/WorkerUp notice can be lost on a degraded fabric,
        # and a worker acting on a stale view would park pulls forever
        self._tell_live_workers(
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
            if self.obs is not None:
                self._m_readmitted.inc()
                self.obs.tracer.instant(
                    "worker.readmitted", cat="fault", tid=worker
                )
            self.handle_worker_recovery(worker)
        elif incarnation > known:
            # the worker rebooted faster than the silence monitor could
            # confirm it dead — without this check its lost state would
            # never be re-spread (peers would keep their migrated-task
            # copies forever).  Run the full down→up path.
            self.failures_detected += 1
            self.readmissions += 1
            self.incarnations[worker] = incarnation
            if self.obs is not None:
                self._m_confirmed.inc()
                self._m_readmitted.inc()
                self.obs.tracer.instant(
                    "worker.fast_reboot", cat="fault", tid=worker
                )
            self.handle_worker_failure(worker)
            self.handle_worker_recovery(worker)
        else:
            # a reordered stale heartbeat may carry an old incarnation;
            # never move the recorded incarnation backwards
            self.incarnations[worker] = max(known, incarnation)
            self.suspected.discard(worker)

    # ------------------------------------------------------------------
    # failure handling (§7)
    # ------------------------------------------------------------------

    def handle_worker_failure(self, worker: int) -> None:
        self.down_workers.add(worker)
        self.progress_table.pop(worker, None)
        self.view += 1
        self._tell_live_workers(WorkerDown(worker=worker, view=self.view))

    def handle_worker_recovery(self, worker: int) -> None:
        self.down_workers.discard(worker)
        self.suspected.discard(worker)
        self.last_heard[worker] = self.sim.now
        self.view += 1
        self._tell_live_workers(WorkerUp(worker=worker, view=self.view), skip=worker)
        if self.on_worker_readmitted is not None:
            self.on_worker_readmitted(worker)

    def _tell_live_workers(self, notice, skip: Optional[int] = None) -> None:
        """Send a membership notice to every worker not known down."""
        for worker in range(self.num_workers):
            if worker != skip and worker not in self.down_workers:
                self.cluster.network.send(
                    self.endpoint, worker, notice.size_bytes(), notice
                )

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, message) -> None:
        payload = message.payload
        if isinstance(payload, Heartbeat):
            self._on_heartbeat(payload.worker, payload.incarnation)
            return
        sender = getattr(payload, "worker", message.src)
        if sender in self.down_workers:
            # a stale message from a worker we declared dead — e.g. one
            # that was in flight at the kill, or from a falsely-suspected
            # survivor behind a partition.  Mid-recovery these used to
            # raise; now they are dropped and counted (only a heartbeat
            # re-admits a down worker).
            self.stale_messages_dropped += 1
            return
        if 0 <= message.src < self.num_workers:
            # any traffic is a liveness signal — the paper's master
            # infers death from *missing progress reports*, not only
            # from dedicated heartbeats
            self.last_heard[message.src] = self.sim.now
        if isinstance(payload, ProgressReport):
            self.progress_table[payload.worker] = payload
        elif isinstance(payload, AggReport):
            self.agg_partials[payload.worker] = payload.partial
        elif isinstance(payload, StealRequest):
            self._handle_steal_request(payload)
        elif self.controller.finished:
            # stragglers delivered after the job completed (duplicates,
            # reordered copies) are expected under chaos — drop, count
            self.unknown_messages_dropped += 1
        else:
            raise TypeError(f"master cannot handle {type(payload).__name__}")
