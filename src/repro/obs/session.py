"""Per-run observability sessions and the multi-run collector.

An :class:`ObsSession` is what a :class:`~repro.core.job.GMinerJob`
attaches when observability is on: one :class:`MetricsRegistry` plus
one :class:`Tracer` bound to the job's virtual clock, with the small
cached-handle helpers the hot paths call (network message accounting,
simulator event counting, kernel batch metering).  Everything is a
plain method call on an already-attached object — when observability
is off the component holds ``None`` and pays one branch, allocating
nothing (the zero-overhead contract, asserted in ``tests/test_obs.py``
via :func:`repro.obs.allocation_counts`).

An :class:`ObsCollector` aggregates the finalized snapshots of many
runs — the ``python -m repro.bench run ... --trace-out/--metrics-out``
path — and knows how to export them.  A collector can be installed
ambiently with :func:`collecting`; jobs check
:func:`current_collector` and auto-attach, so the bench layer needs no
per-cell plumbing.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

#: Stable schema tags, bumped only on breaking layout changes.
RUN_SCHEMA = "repro.obs.run/1"
METRICS_SCHEMA = "repro.obs.metrics/1"


class ObsSession:
    """Runtime instrumentation for one job run."""

    #: Always-true marker so call sites can use ``obs is not None`` and
    #: tests can tell a session from the disabled path.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], float],
        name: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.name = name
        self.labels = dict(labels or {})
        #: Task-id offset subtracted by :meth:`rel_task`.  Task ids are
        #: process-global and never reset, so without this two
        #: same-seed runs in one process would label otherwise
        #: identical spans with shifted ids; the job sets it to
        #: ``repro.core.task.peek_task_id()`` at session creation.
        self.task_base = 0
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock)
        self._clock = clock
        # hot-path handle caches (created lazily, once per series)
        self._net_messages: Dict[str, Any] = {}
        self._net_bytes: Dict[str, Any] = {}
        self._kernel_batches: Dict[str, Any] = {}
        self._kernel_items: Dict[str, Any] = {}
        self._sim_events = self.registry.counter("sim.events")

    @property
    def now(self) -> float:
        return self._clock()

    def rel_task(self, task_id: int) -> int:
        """Run-relative task id (negative sentinels pass through)."""
        return task_id - self.task_base if task_id >= 0 else task_id

    # -- cached-handle helpers for the hottest call sites ---------------

    def sim_event(self) -> None:
        """One simulator event processed (called from the run loop)."""
        self._sim_events.inc()

    def net_message(self, kind: str, nbytes: int) -> None:
        """One message offered to the fabric, labelled by payload type."""
        counter = self._net_messages.get(kind)
        if counter is None:
            counter = self._net_messages[kind] = self.registry.counter(
                "net.messages", type=kind
            )
            self._net_bytes[kind] = self.registry.counter("net.bytes", type=kind)
        counter.inc()
        self._net_bytes[kind].inc(nbytes)

    def kernel_batch(self, op: str, items: int) -> None:
        """One vectorised kernel batch of ``items`` scanned elements."""
        counter = self._kernel_batches.get(op)
        if counter is None:
            counter = self._kernel_batches[op] = self.registry.counter(
                "kernels.batches", op=op
            )
            self._kernel_items[op] = self.registry.counter("kernels.items", op=op)
        counter.inc()
        self._kernel_items[op].inc(items)

    # -- finalisation ----------------------------------------------------

    def finalize(self, end: float, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Close open spans and freeze into a plain-dict snapshot.

        The snapshot is fully deterministic (sorted series, creation-
        ordered spans, no wall-clock) and picklable, so it survives the
        parallel runner's process pool intact.
        """
        self.tracer.close_open_spans(end)
        snapshot: Dict[str, Any] = {
            "schema": RUN_SCHEMA,
            "name": self.name,
            "labels": {k: self.labels[k] for k in sorted(self.labels)},
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.to_dicts(),
            "spans_dropped": self.tracer.dropped,
        }
        if meta:
            snapshot["meta"] = {k: meta[k] for k in sorted(meta)}
        return snapshot


class ObsCollector:
    """Accumulates finalized run snapshots for export.

    One collector per bench invocation; each instrumented job appends
    its snapshot in completion order (deterministic under the serial
    runner, which the CLI enforces when export flags are given).
    """

    def __init__(self) -> None:
        self.runs: List[Dict[str, Any]] = []

    def add_run(self, snapshot: Dict[str, Any]) -> None:
        self.runs.append(snapshot)

    def __len__(self) -> int:
        return len(self.runs)

    # Export conveniences (delegate to repro.obs.exporters; imported
    # lazily to keep this module dependency-light for the hot path).

    def write_chrome_trace(self, path: str) -> str:
        from repro.obs import exporters

        return exporters.write_chrome_trace(path, self.runs)

    def write_metrics_json(self, path: str) -> str:
        from repro.obs import exporters

        return exporters.write_metrics_json(path, self.runs)


# ----------------------------------------------------------------------
# Ambient collector: how the bench CLI turns observability on for every
# job of an experiment without threading a parameter through each cell.
# ----------------------------------------------------------------------

_current_collector: Optional[ObsCollector] = None


def current_collector() -> Optional[ObsCollector]:
    """The ambient collector, or ``None`` when none is installed."""
    return _current_collector


@contextlib.contextmanager
def collecting(collector: ObsCollector) -> Iterator[ObsCollector]:
    """Install ``collector`` ambiently for the duration of the block.

    Process-local: jobs fanned out to a parallel pool do not see it,
    which is why the CLI forces serial execution when exporting.
    """
    global _current_collector
    previous = _current_collector
    _current_collector = collector
    try:
        yield collector
    finally:
        _current_collector = previous
