"""The G-Miner master (paper §5.1).

The master owns cluster-wide coordination: the progress collector and
scheduler (driving task stealing) and the global aggregator merge and
broadcast.  It is a network endpoint without a modelled core pool — its
work is negligible next to mining.  Its half of §7 (failure detection,
membership, checkpoint commands) is a
:class:`repro.core.recovery.MasterRecovery`, armed only when the job
has a failure plan or a ``checkpoint_interval``.
"""

from __future__ import annotations

from typing import AbstractSet, Any, Dict, Optional

from repro.core.aggregator import Aggregator
from repro.core.config import GMinerConfig
from repro.core.messages import (
    AggBroadcast,
    AggReport,
    MigrateCommand,
    NoTask,
    ProgressReport,
    StealRequest,
)
from repro.sim.cluster import Cluster


class Master:
    """Coordinator for one G-Miner job."""

    #: the payloads :meth:`_on_message` handles; any other is a bug (or,
    #: under a failure plan, a straggler after the job finished)
    HANDLES = (ProgressReport, AggReport, StealRequest)

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
        self.steals_brokered = 0
        #: :class:`repro.core.recovery.MasterRecovery` when the job has
        #: a failure plan or a checkpoint interval; ``None`` means no
        #: worker is ever down.
        self.recovery = None
        #: :class:`repro.obs.ObsSession` when observability is on;
        #: ``None`` keeps every instrumented site to a single branch.
        self.obs = None
        cluster.network.register_handler(endpoint, self._on_message)

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.ObsSession` into the master.

        Like the worker hook, strictly read-only over the simulation.
        """
        self.obs = obs
        registry = obs.registry
        self._m_steals = registry.counter("gminer.steals.brokered")
        self._m_no_task = registry.counter("gminer.steals.no_task")

    @property
    def down_workers(self) -> AbstractSet[int]:
        """Workers the failure monitor has confirmed down (read-only)."""
        return frozenset() if self.recovery is None else self.recovery.down_workers

    # ------------------------------------------------------------------
    # periodic coordination loops
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic aggregation (and any checkpoint) loop."""
        if self.aggregator is not None:
            self.sim.schedule(self.config.agg_interval, self._agg_tick)
        if self.recovery is not None:
            self.recovery.start_checkpoints()

    def _agg_tick(self) -> None:
        if self.controller.finished:
            return
        if self.agg_partials:
            merged = self.aggregator.merge_all(self.agg_partials.values())
            self._tell_live_workers(AggBroadcast(value=merged))
        self.sim.schedule(self.config.agg_interval, self._agg_tick)

    def _tell_live_workers(self, message, skip: Optional[int] = None) -> None:
        """Send ``message`` to every worker not known down."""
        down = self.down_workers
        for worker in range(self.num_workers):
            if worker != skip and worker not in down:
                self._send(worker, message)

    def _send(self, dest: int, message) -> None:
        self.cluster.network.send(self.endpoint, dest, message.size_bytes(), message)

    # ------------------------------------------------------------------
    # task stealing: the progress scheduler (§6.2)
    # ------------------------------------------------------------------

    def _handle_steal_request(self, request: StealRequest) -> None:
        victim = self._most_loaded_worker(exclude=request.worker)
        if victim is None:
            if self.obs is not None:
                self._m_no_task.inc()
            self._send(request.worker, NoTask(source=-1))
            return
        self.steals_brokered += 1
        if self.obs is not None:
            self._m_steals.inc()
        self._send(victim, MigrateCommand(request.worker, self.config.steal_batch))

    def _most_loaded_worker(self, exclude: int) -> Optional[int]:
        best: Optional[int] = None
        best_load = 0
        down = self.down_workers
        for worker, report in self.progress_table.items():
            if worker == exclude or worker in down:
                continue
            load = report.store_size
            if load > best_load:
                best_load = load
                best = worker
        return best

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_message(self, message) -> None:
        if self.recovery is not None and self.recovery.on_message(message):
            return
        payload = message.payload
        if isinstance(payload, ProgressReport):
            self.progress_table[payload.worker] = payload
        elif isinstance(payload, AggReport):
            self.agg_partials[payload.worker] = payload.partial
        elif isinstance(payload, StealRequest):
            self._handle_steal_request(payload)
        else:
            raise TypeError(f"master cannot handle {type(payload).__name__}")
