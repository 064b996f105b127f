"""Failure injection for fault-tolerance experiments.

The paper's recovery story (§7): when a slave dies, the master re-runs
the dead worker's tasks from the previous checkpoint while live workers
keep going, and task stealing re-spreads the recovered load.  A
:class:`FailurePlan` schedules node kills (and optional recoveries) at
chosen simulated times so those paths can be exercised and benchmarked.

Beyond binary node death, a plan can degrade individual links: seeded
message loss, duplication, reordering, straggler (slow-link)
multipliers and partition windows, all declared up front and replayed
deterministically from ``plan.seed`` (see
:class:`repro.sim.network.LinkFaultModel`).  Chaos schedules are data,
not code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.sim.cluster import Cluster
from repro.sim.network import LinkFaultModel, LinkFaultSpec


@dataclass(frozen=True)
class FailureEvent:
    """Kill ``node_id`` at ``at_time``; recover after ``recovery_delay``
    seconds unless it is ``None`` (permanent failure)."""

    node_id: int
    at_time: float
    recovery_delay: Optional[float] = None


@dataclass
class FailurePlan:
    """An ordered collection of node failures and link faults.

    ``seed`` drives every probabilistic link fault; two runs armed with
    equal plans produce identical degraded timelines.  The builder
    methods all return ``self`` so schedules chain fluently::

        plan = (
            FailurePlan(seed=7)
            .kill(2, at_time=0.3, recovery_delay=0.05)
            .lossy(0.1, start=0.1, end=0.6)
            .partition(src=0, dst=1, start=0.2, end=0.35)
        )
    """

    events: List[FailureEvent] = field(default_factory=list)
    link_faults: List[LinkFaultSpec] = field(default_factory=list)
    seed: int = 0

    # -- node failures -------------------------------------------------

    def kill(self, node_id: int, at_time: float, recovery_delay: Optional[float] = None):
        self.events.append(FailureEvent(node_id, at_time, recovery_delay))
        return self

    # -- link faults ---------------------------------------------------

    def _link(self, src, dst, start, end, **fault):
        spec = LinkFaultSpec(src=src, dst=dst, start=start, end=end, **fault)
        self.link_faults.append(spec)
        return self

    def lossy(self, rate: float, src=None, dst=None, start=0.0, end=math.inf):
        """Drop each matching message with probability ``rate``."""
        return self._link(src, dst, start, end, loss=rate)

    def duplicating(self, rate: float, src=None, dst=None, start=0.0, end=math.inf):
        """Deliver a second copy of each matching message with
        probability ``rate`` (exercises receiver-side dedup)."""
        return self._link(src, dst, start, end, duplicate=rate)

    def reordering(
        self, rate: float, delay: float = 0.005, src=None, dst=None,
        start=0.0, end=math.inf,
    ):
        """Hold each matching message back by ``delay`` with probability
        ``rate`` so later sends overtake it."""
        return self._link(src, dst, start, end, reorder=rate, reorder_delay=delay)

    def slow_link(self, factor: float, src=None, dst=None, start=0.0, end=math.inf):
        """Multiply matching messages' latency by ``factor`` (straggler)."""
        return self._link(src, dst, start, end, slow_factor=factor)

    def partition(self, src=None, dst=None, *, start: float, end: float):
        """Drop *all* matching traffic during ``[start, end)``.

        Note the drop is directional: partitioning ``src → dst`` does
        not silence ``dst → src``; declare both for a symmetric cut.
        """
        return self._link(src, dst, start, end, partition=True)

    # -- validation / compilation --------------------------------------

    def validate(self, num_nodes: Optional[int] = None) -> None:
        """Fail fast on malformed schedules; raise ``ValueError``.

        Rejects negative/NaN times, kills of a node that is already
        dead at that instant (a duplicate kill can never trigger — it
        is a schedule bug, not a chaos input), and — when ``num_nodes``
        is known — events naming unknown node ids.
        """
        for event in self.events:
            if math.isnan(event.at_time) or event.at_time < 0:
                raise ValueError(
                    f"failure at_time must be a non-negative simulated time, "
                    f"got {event.at_time!r} for node {event.node_id}"
                )
            if event.recovery_delay is not None and (
                math.isnan(event.recovery_delay) or event.recovery_delay <= 0
            ):
                raise ValueError(
                    f"recovery_delay must be a positive time or None "
                    f"(permanent), got {event.recovery_delay!r} for node "
                    f"{event.node_id}"
                )
            if num_nodes is not None and not 0 <= event.node_id < num_nodes:
                raise ValueError(
                    f"failure plan names unknown node id {event.node_id}; "
                    f"the cluster has nodes [0, {num_nodes})"
                )
        # duplicate-kill check: walk each node's kills in time order and
        # reject any kill landing inside an earlier kill's dead window
        by_node = {}
        for event in sorted(self.events, key=lambda e: e.at_time):
            previous = by_node.get(event.node_id)
            if previous is not None:
                dead_until = (
                    math.inf
                    if previous.recovery_delay is None
                    else previous.at_time + previous.recovery_delay
                )
                if event.at_time < dead_until:
                    raise ValueError(
                        f"duplicate kill of node {event.node_id} at "
                        f"t={event.at_time}: it is already dead from the "
                        f"kill at t={previous.at_time} "
                        + (
                            "(permanent failure)"
                            if previous.recovery_delay is None
                            else f"until t={dead_until}"
                        )
                    )
            by_node[event.node_id] = event
        for spec in self.link_faults:
            spec.validate(num_nodes=num_nodes)

    def build_link_fault_model(self) -> Optional[LinkFaultModel]:
        """Compile the declared link faults, or ``None`` if there are
        none (so fault-free fabrics carry zero fault-layer state)."""
        if not self.link_faults:
            return None
        return LinkFaultModel(self.link_faults, seed=self.seed)

    def __iter__(self):
        return iter(sorted(self.events, key=lambda e: e.at_time))


class FailureInjector:
    """Arms a :class:`FailurePlan` against a built cluster.

    The injector is the *physical* layer: it halts nodes, silences their
    links and later brings them back.  How the rest of the system finds
    out is the protocol's problem (the master's heartbeat monitor); the
    ``on_fail``/``on_recover`` hooks fire at the physical instant for
    the node's own wipe and restore.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: FailurePlan,
        on_fail: Optional[Callable[[int], None]] = None,
        on_recover: Optional[Callable[[int], None]] = None,
        controller=None,
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        self.on_fail = on_fail
        self.on_recover = on_recover
        self.controller = controller
        self.failures_triggered: List[FailureEvent] = []

    def arm(self) -> None:
        """Validate the plan, then schedule every failure event."""
        self.plan.validate(num_nodes=len(self.cluster.nodes))
        for event in self.plan:
            self.cluster.sim.schedule_at(
                event.at_time, lambda e=event: self._trigger(e)
            )

    def _trigger(self, event: FailureEvent) -> None:
        if self.controller is not None and self.controller.finished:
            return  # the job already completed; a late kill is pure churn
        node = self.cluster.node(event.node_id)
        if not node.alive:
            return
        node.fail()
        self.cluster.network.set_node_down(event.node_id, True)
        self.failures_triggered.append(event)
        if self.on_fail is not None:
            self.on_fail(event.node_id)
        if event.recovery_delay is not None:
            self.cluster.sim.schedule(
                event.recovery_delay, lambda: self._recover(event.node_id)
            )

    def _recover(self, node_id: int) -> None:
        if self.controller is not None and self.controller.finished:
            return  # the job already completed; reviving is pointless churn
        node = self.cluster.node(node_id)
        node.recover()
        self.cluster.network.set_node_down(node_id, False)
        if self.on_recover is not None:
            self.on_recover(node_id)
