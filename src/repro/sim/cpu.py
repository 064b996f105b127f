"""Simulated CPU core pools.

Each node owns a :class:`CorePool` with a fixed number of cores and a
speed in *work units per second*.  Work units are abstract: mining code
measures how much real work it performed (e.g. adjacency-list
intersections) and submits that amount; the pool translates it into
virtual time and executes the completion callback when a core finishes.

The pool maintains a FIFO of pending work so submitting more jobs than
cores naturally queues — this is what produces realistic utilisation
curves when the task pipeline keeps cores fed (Figure 6) versus starves
them at batch barriers (Figure 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.metrics import ResourceMeter

#: A lazy work factory: invoked when a core actually starts the item,
#: it performs the real computation and returns ``(work_units,
#: completion_callback)``.  Lazy execution matters for pruning-driven
#: algorithms (MCF): the computation must observe the shared bound as
#: of its *start* time, not its submission time.
WorkFactory = Callable[[], Tuple[float, Callable[[], None]]]


@dataclass
class _WorkItem:
    work_units: float
    on_done: Callable[[], None]


class CorePool:
    """A fixed set of identical cores executing queued work items.

    ``speed`` is work units per second per core.  ``submit`` enqueues a
    work item; it runs as soon as a core is free and calls ``on_done``
    at its virtual completion time.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cores: int,
        speed: float,
    ) -> None:
        if cores <= 0:
            raise ValueError("core pool needs at least one core")
        if speed <= 0:
            raise ValueError("core speed must be positive")
        self.sim = sim
        self.name = name
        self.cores = cores
        self.speed = speed
        self.meter = ResourceMeter(name=name, capacity=cores)
        self._queue: Deque = deque()  # _WorkItem | WorkFactory
        self._busy = 0
        self._halted = False
        self.completed_items = 0
        self.total_work_units = 0.0

    @property
    def busy_cores(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._queue)

    def halt(self) -> None:
        """Stop dispatching work (used by failure injection)."""
        self._halted = True
        self._queue.clear()

    def resume(self) -> None:
        self._halted = False
        self._dispatch()

    def submit(self, work_units: float, on_done: Callable[[], None]) -> None:
        """Queue ``work_units`` of computation; ``on_done`` fires on completion."""
        if work_units < 0:
            raise ValueError("work cannot be negative")
        self._queue.append(_WorkItem(work_units, on_done))
        self._dispatch()

    def submit_lazy(self, factory: WorkFactory, front: bool = False) -> None:
        """Queue work whose real execution is deferred until a core is free.

        ``factory()`` runs at core-start time, does the real
        computation, and returns ``(work_units, on_done)``.  ``front``
        pushes ahead of queued items (a task continuing to its next
        round keeps its core, per the paper's task model).
        """
        if front:
            self._queue.appendleft(factory)
        else:
            self._queue.append(factory)
        self._dispatch()

    def _dispatch(self) -> None:
        while not self._halted and self._busy < self.cores and self._queue:
            entry = self._queue.popleft()
            if isinstance(entry, _WorkItem):
                work_units, on_done = entry.work_units, entry.on_done
            else:
                work_units, on_done = entry()
                if work_units < 0:
                    raise ValueError("work cannot be negative")
            self._busy += 1
            duration = work_units / self.speed
            token = self.meter.begin(self.sim.now)
            self.total_work_units += work_units

            def finish(on_done=on_done, token=token):
                self._busy -= 1
                self.meter.end(self.sim.now, token)
                self.completed_items += 1
                if not self._halted:
                    on_done()
                self._dispatch()

            self.sim.schedule(duration, finish)

    def utilization(self, start: float, end: float) -> float:
        return self.meter.utilization(start, end)
