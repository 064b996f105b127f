"""``repro.obs`` — the unified observability subsystem.

One place for every measurement the reproduction makes:

* :class:`MetricsRegistry` — labelled counters, gauges and
  fixed-bucket histograms with deterministic snapshot/merge
  (:mod:`repro.obs.metrics`);
* :class:`Tracer` / :class:`Span` — span tracing on the simulator's
  virtual clock, nesting via parent ids (:mod:`repro.obs.tracing`);
* :class:`ObsSession` — what a job attaches when
  ``GMinerConfig(enable_obs=True)`` (or an ambient
  :class:`ObsCollector` installed via :func:`collecting`) turns
  instrumentation on (:mod:`repro.obs.session`);
* exporters — Chrome ``trace_event`` JSON for Perfetto, Prometheus
  text exposition, and the stable JSON metrics schema
  (:mod:`repro.obs.exporters`).

Observability is strictly read-only with respect to the simulation: it
never schedules events or draws randomness, so enabling it cannot
change any simulated quantity, and two same-seed runs produce
byte-identical snapshots.  With it disabled every instrumented hot
path pays a single ``is None`` branch and allocates nothing —
:func:`allocation_counts` is the probe the zero-overhead test uses.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import metrics as _metrics_mod
from repro.obs import tracing as _tracing_mod
from repro.obs.env import environment_metadata
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.session import (
    METRICS_SCHEMA,
    RUN_SCHEMA,
    ObsCollector,
    ObsSession,
    collecting,
    current_collector,
)
from repro.obs.tracing import MASTER_TID, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "MASTER_TID",
    "ObsSession",
    "ObsCollector",
    "collecting",
    "current_collector",
    "RUN_SCHEMA",
    "METRICS_SCHEMA",
    "allocation_counts",
    "environment_metadata",
]


def allocation_counts() -> Dict[str, int]:
    """Process-wide observability allocation counters (test hook).

    ``spans`` counts every :class:`Span` ever constructed, ``series``
    every metric series.  The zero-overhead test snapshots these,
    runs a job with observability off, and asserts neither moved.
    """
    return {
        "spans": _tracing_mod.spans_created(),
        "series": _metrics_mod.series_created(),
    }
