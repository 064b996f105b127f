"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, JSON snapshots.

Three stable output formats for the data an :class:`ObsSession`
records:

* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev (open the page,
  drag the JSON in).  Spans become complete (``"ph": "X"``) events,
  zero-length spans become instants, and each run gets its own ``pid``
  with readable process/thread name metadata.
* :func:`prometheus_text` — the text exposition format, so a snapshot
  can be diffed, scraped from a file, or pushed to a gateway.
* :func:`write_metrics_json` — the stable JSON snapshot schema
  (``repro.obs.metrics/1``) behind ``--metrics-out``.

All writers serialise with sorted keys and fixed separators:
same-seed runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.session import METRICS_SCHEMA
from repro.obs.tracing import MASTER_TID

#: Simulated seconds → trace-event microseconds.
_US = 1e6


def dumps_deterministic(obj: Any) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(path: str, text: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------


def _thread_name(tid: int) -> str:
    return "master" if tid == MASTER_TID else f"worker-{tid}"


def chrome_trace_events(run: Dict[str, Any], pid: int = 0) -> List[Dict[str, Any]]:
    """Trace events for one run snapshot, under process id ``pid``."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": run.get("name") or f"run-{pid}"},
        }
    ]
    tids = sorted({span["tid"] for span in run.get("spans", ())})
    for tid in tids:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": _thread_name(tid)},
            }
        )
    for span in run.get("spans", ()):
        args: Dict[str, Any] = {"span_id": span["id"]}
        if "parent" in span:
            args["parent_span_id"] = span["parent"]
        args.update(span.get("args", {}))
        start = span["start"]
        end = span["end"] if span["end"] is not None else start
        base = {
            "name": span["name"],
            "cat": span["cat"],
            "pid": pid,
            "tid": span["tid"],
            "ts": start * _US,
            "args": args,
        }
        if end > start:
            base["ph"] = "X"
            base["dur"] = (end - start) * _US
        else:
            base["ph"] = "i"
            base["s"] = "t"  # thread-scoped instant
        events.append(base)
    return events


def chrome_trace(runs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Full trace document: one ``pid`` per run, loadable in Perfetto."""
    events: List[Dict[str, Any]] = []
    for pid, run in enumerate(runs):
        events.extend(chrome_trace_events(run, pid=pid))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, runs: Iterable[Dict[str, Any]]) -> str:
    return _write(path, dumps_deterministic(chrome_trace(runs)))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------


def _prom_name(key: str) -> str:
    """``net.messages{type="X"}`` → ``net_messages{type="X"}``."""
    name, brace, labels = key.partition("{")
    return name.replace(".", "_") + brace + labels


def _fmt(value: float) -> str:
    """Render integers without the trailing ``.0`` (Prometheus style)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(metrics: Dict[str, Any]) -> str:
    """Text exposition of one metrics snapshot (sorted, deterministic)."""
    lines: List[str] = []
    seen_types: set = set()

    def type_line(key: str, kind: str) -> None:
        base = _prom_name(key).partition("{")[0]
        if base not in seen_types:
            seen_types.add(base)
            lines.append(f"# TYPE {base} {kind}")

    for key, value in metrics.get("counters", {}).items():
        type_line(key, "counter")
        lines.append(f"{_prom_name(key)} {_fmt(value)}")
    for key, value in metrics.get("gauges", {}).items():
        type_line(key, "gauge")
        lines.append(f"{_prom_name(key)} {_fmt(value)}")
    for key, hist in metrics.get("histograms", {}).items():
        base, brace, labels = _prom_name(key).partition("{")
        labels = labels[:-1] if brace else ""  # strip trailing }
        type_line(key, "histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            sep = "," if labels else ""
            lines.append(
                f'{base}_bucket{{{labels}{sep}le="{_fmt(float(bound))}"}} {cumulative}'
            )
        cumulative += hist["counts"][-1]
        sep = "," if labels else ""
        lines.append(f'{base}_bucket{{{labels}{sep}le="+Inf"}} {cumulative}')
        suffix = "{" + labels + "}" if labels else ""
        lines.append(f"{base}_sum{suffix} {_fmt(hist['sum'])}")
        lines.append(f"{base}_count{suffix} {hist['count']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON metrics snapshot
# ----------------------------------------------------------------------


def metrics_document(runs: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Stable JSON document: per-run metrics + span counts, no spans."""
    runs = list(runs)
    return {
        "schema": METRICS_SCHEMA,
        "runs": [
            {
                "name": run.get("name", ""),
                "labels": run.get("labels", {}),
                "meta": run.get("meta", {}),
                "metrics": run["metrics"],
                "num_spans": len(run.get("spans", ())),
                "spans_dropped": run.get("spans_dropped", 0),
            }
            for run in runs
        ],
    }


def write_metrics_json(path: str, runs: Iterable[Dict[str, Any]]) -> str:
    return _write(path, dumps_deterministic(metrics_document(runs)))
