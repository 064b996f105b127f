"""Deterministic discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a heap of pending events.
Components schedule callbacks at future virtual times; the simulator
pops them in ``(time, sequence)`` order, which makes every run fully
deterministic — two events at the same instant fire in the order they
were scheduled.  The heap holds ``(time, seq, event)`` tuples: ``seq``
is unique, so ordering is a C tuple compare that never reaches the
event (or its callback).

The engine is intentionally minimal: no processes, no coroutines, just
timestamped callbacks.  Higher-level resources (cores, NICs, disks) are
built on top in their own modules.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(slots=True, eq=False)
class Event:
    """A single scheduled callback.

    Events run in ``(time, seq)`` order; ``seq`` is a monotonically
    increasing tie-breaker so simultaneous events run FIFO.
    """

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True


class Simulator:
    """Event loop with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._stopped = False
        self.events_processed = 0
        #: Optional :class:`repro.obs.ObsSession`.  When set, every
        #: processed event also ticks the session's ``sim.events``
        #: counter; when ``None`` (the default) the run loop pays one
        #: branch and nothing else.
        self.obs = None
        #: Optional :class:`repro.verify.InvariantMonitor`.  When set,
        #: every popped event is checked for clock monotonicity before
        #: the clock advances; ``None`` (the default) costs one branch.
        self.verify = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at an absolute virtual time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the heap drains, ``until`` is reached,
        or ``max_events`` have been processed.

        Returns the virtual time at which the loop stopped.  When
        ``until`` is given and events remain beyond it, the clock is
        advanced exactly to ``until``; if the heap drains first, the
        clock stays at the last event's time (so callers can read the
        true completion time).
        """
        self._stopped = False
        processed = 0
        heap = self._heap
        while heap and not self._stopped:
            time, _, event = heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(heap)
            if event.cancelled:
                continue
            if self.verify is not None:
                self.verify.on_sim_event(self._now, time)
            self._now = time
            event.callback()
            processed += 1
            self.events_processed += 1
            if self.obs is not None:
                self.obs.sim_event()
            if max_events is not None and processed >= max_events:
                break
        return self._now

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the heap is empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)
