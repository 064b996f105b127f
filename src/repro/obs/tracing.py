"""Span-based tracing over the simulator's virtual clock.

A :class:`Span` is a named interval ``[start, end]`` of simulated time
on a logical thread (``tid`` — worker id, or :data:`MASTER_TID` for
the master), optionally nested under a parent span id.  The
:class:`Tracer` hands out monotonically increasing span ids, which —
together with the simulator's deterministic event order — makes two
same-seed runs produce identical span lists.

This is the engine's only tracer: every task lifecycle transition is
recorded as an instant, and the phases between them (pull wait, execute
round, RPC round trip, recovery) are real intervals that render as bars
in ``chrome://tracing`` / Perfetto.

Span taxonomy (category → names):

* ``job``    — ``job.setup``, ``job.partition``, ``job.mining``
* ``task``   — ``task.seed`` (per-worker generator scan),
  ``task.pull_wait`` (PULL_ISSUED → READY), ``task.round`` (one
  executor round; ``args.work`` carries the charged work units)
* ``rpc``    — ``rpc.pull`` (request → matching response),
  ``rpc.retry`` instants
* ``fault``  — ``checkpoint`` instants, ``worker.recovery`` intervals,
  suspect/confirm/readmit instants
* ``lifecycle`` — one instant per task transition: ``task.seeded``,
  ``task.buffered``, ``task.stored``, ``task.dequeued``,
  ``task.pull_issued``, ``task.ready``, ``task.executed``,
  ``task.migrated_out``, ``task.migrated_in``, ``task.finished``,
  plus ``task.rpc_retry`` (a timed-out pull or migration retransmitted)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

#: Chrome-trace thread id used for master-side spans (workers use
#: their worker id; this sits above any realistic cluster size).
MASTER_TID = 10_000

#: Spans/instants created since process start — the zero-overhead probe.
_spans_created = 0


def spans_created() -> int:
    """Process-wide count of spans ever created (test hook)."""
    return _spans_created


class Span:
    """One traced interval.  ``end`` is ``None`` while open."""

    __slots__ = ("span_id", "name", "cat", "tid", "start", "end", "parent", "args")

    def __init__(
        self,
        span_id: int,
        name: str,
        cat: str,
        tid: int,
        start: float,
        parent: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        global _spans_created
        _spans_created += 1
        self.span_id = span_id
        self.name = name
        self.cat = cat
        self.tid = tid
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "id": self.span_id,
            "name": self.name,
            "cat": self.cat,
            "tid": self.tid,
            "start": self.start,
            "end": self.end,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.args:
            record["args"] = {k: self.args[k] for k in sorted(self.args)}
        return record


#: Spans a tracer records before dropping (and counting) the rest.
SPAN_CAPACITY = 500_000


class Tracer:
    """Capacity-bounded span recorder bound to a clock function.

    ``clock`` returns the current simulated time; spans never touch the
    wall clock, which is what keeps traces deterministic.  Past
    ``capacity`` spans the tracer drops (and counts) instead of
    growing without bound.
    """

    def __init__(self, clock: Callable[[], float], capacity: int = SPAN_CAPACITY) -> None:
        self._clock = clock
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.spans)

    def _record(
        self,
        name: str,
        cat: str,
        tid: int,
        start: float,
        parent: Optional[int],
        args: Optional[Dict[str, Any]],
    ) -> Optional[Span]:
        if len(self.spans) >= self.capacity:
            self.dropped += 1
            return None
        span = Span(self._next_id, name, cat, tid, start, parent, args)
        self._next_id += 1
        self.spans.append(span)
        return span

    def begin(
        self,
        name: str,
        cat: str = "task",
        tid: int = 0,
        parent: Optional[int] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Open a span at the current simulated time."""
        return self._record(name, cat, tid, self._clock(), parent, args or None)

    def finish(self, span: Optional[Span]) -> None:
        """Close a span at the current simulated time (None-safe, so
        call sites need no capacity-overflow branch)."""
        if span is not None:
            span.end = self._clock()

    def complete(
        self,
        name: str,
        cat: str,
        tid: int,
        start: float,
        end: float,
        parent: Optional[int] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record a span with explicit bounds (e.g. reconstructed phases)."""
        span = self._record(name, cat, tid, start, parent, args or None)
        if span is not None:
            span.end = end
        return span

    def instant(
        self,
        name: str,
        cat: str = "lifecycle",
        tid: int = 0,
        parent: Optional[int] = None,
        **args: Any,
    ) -> Optional[Span]:
        """Record a zero-length marker at the current simulated time."""
        now = self._clock()
        span = self._record(name, cat, tid, now, parent, args or None)
        if span is not None:
            span.end = now
        return span

    def close_open_spans(self, end: float) -> int:
        """Close every still-open span at ``end`` (finalize safety net:
        a span opened on a node that died mid-interval never saw its
        ``finish``).  Returns how many were closed."""
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.end = end
                closed += 1
        return closed

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Serialise all spans (record order == creation order)."""
        return [span.to_dict() for span in self.spans]
