"""Resource accounting: busy intervals and utilisation time series.

The paper reports average CPU utilisation (Tables 1 and 4) and plots
CPU/network/disk utilisation over time (Figures 5 and 6).  Every
simulated resource owns a :class:`ResourceMeter` that records busy
intervals; :class:`UtilizationTimeline` bins those intervals into a
sampled utilisation-percentage series suitable for the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class ResourceMeter:
    """Tracks busy time of a resource with some capacity.

    ``capacity`` is the number of units that can be busy at once (e.g.
    24 for a 24-core pool, 1 for a NIC or a disk).  Utilisation over a
    window is ``busy_unit_seconds / (capacity * window)``.
    """

    name: str
    capacity: float = 1.0
    _intervals: List[Tuple[float, float, float]] = field(default_factory=list)
    _open: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    _next_token: int = 0

    def begin(self, now: float, units: float = 1.0) -> int:
        """Record the start of a busy period of ``units`` capacity.

        Returns a token to pass to :meth:`end`.
        """
        token = self._next_token
        self._next_token += 1
        self._open[token] = (now, units)
        return token

    def end(self, now: float, token: int) -> None:
        """Close the busy period identified by ``token``.

        Ending an unknown (never issued, or already ended) token is a
        caller bug; raise a diagnosable error instead of a bare
        ``KeyError``.
        """
        entry = self._open.pop(token, None)
        if entry is None:
            raise ValueError(
                f"meter {self.name!r}: end() called with unknown token "
                f"{token!r} (never issued by begin(), or already ended)"
            )
        start, units = entry
        if now > start:
            self._intervals.append((start, now, units))

    def add_interval(self, start: float, end: float, units: float = 1.0) -> None:
        """Record a complete busy interval directly."""
        if end > start:
            self._intervals.append((start, end, units))

    def busy_unit_seconds(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Total unit-seconds of busy time overlapping ``[start, end]``.

        An inverted window (``end < start``) is always a caller bug —
        a silent 0.0 here has hidden swapped arguments before.
        """
        if end is not None and end < start:
            raise ValueError(
                f"meter {self.name!r}: busy_unit_seconds window is inverted "
                f"(start={start}, end={end})"
            )
        total = 0.0
        for s, e, units in self._intervals:
            lo = max(s, start)
            hi = e if end is None else min(e, end)
            if hi > lo:
                total += (hi - lo) * units
        return total

    def utilization(self, start: float, end: float) -> float:
        """Average utilisation fraction (0..1) over ``[start, end]``."""
        window = end - start
        if window <= 0 or self.capacity <= 0:
            return 0.0
        return min(1.0, self.busy_unit_seconds(start, end) / (self.capacity * window))

    @property
    def intervals(self) -> List[Tuple[float, float, float]]:
        return list(self._intervals)


@dataclass
class UtilizationTimeline:
    """Sampled utilisation series for one or more resources.

    Produces the data behind Figures 5 and 6: for each time bin, the
    percentage utilisation of CPU, network and disk.
    """

    meters: Dict[str, ResourceMeter]

    def sample(self, end: float, bins: int = 50, start: float = 0.0):
        """Return ``(times, {name: [pct, ...]})`` with ``bins`` samples."""
        if bins <= 0:
            raise ValueError("bins must be positive")
        width = (end - start) / bins if end > start else 0.0
        times = [start + width * (i + 0.5) for i in range(bins)]
        series: Dict[str, List[float]] = {}
        for name, meter in self.meters.items():
            values = []
            for i in range(bins):
                lo = start + i * width
                hi = lo + width
                if hi > lo:
                    values.append(100.0 * meter.utilization(lo, hi))
                else:
                    values.append(0.0)
            series[name] = values
        return times, series


@dataclass
class ByteCounter:
    """Accumulates byte counts, e.g. total network traffic (Table 4)."""

    name: str
    total: int = 0

    def add(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("byte count cannot be negative")
        self.total += nbytes

    @property
    def gigabytes(self) -> float:
        return self.total / 1e9


@dataclass
class MemoryGauge:
    """Tracks current and peak simulated memory of a node.

    Raising past ``limit_bytes`` is detected by the caller (the node),
    which turns it into a :class:`~repro.sim.errors.SimulatedOOMError`;
    the gauge itself only does arithmetic so it can also be used for
    unlimited accounting (e.g. the single-thread baseline).
    """

    name: str
    current: int = 0
    peak: int = 0

    def allocate(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("allocation cannot be negative")
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def free(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("free cannot be negative")
        self.current = max(0, self.current - nbytes)


def merge_peaks(gauges: Iterable[MemoryGauge]) -> int:
    """Aggregate peak memory across nodes (paper reports cluster peak sums)."""
    return sum(g.peak for g in gauges)
