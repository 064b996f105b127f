"""Harness-side span recording for the traced pass.

Spans are recorded around the harness's own calls into each layer
(``<layer>.<call>``), kept in memory, and written out once when the pass
ends — as a Chrome ``trace_event`` file Perfetto loads, and as a table
of per-name totals where a span's *self* time is its duration minus the
part its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Single-threaded span recorder on the host's monotonic clock."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "args": args,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def timed(self, name: str, fn: Callable[[], Any], **args: Any) -> Tuple[Any, float]:
        """Run ``fn`` inside a span; returns ``(result, seconds)``."""
        with self.span(name, **args) as record:
            result = fn()
        return result, record["end"] - record["start"]

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span."""

        def traced(*a: Any, **kw: Any) -> Any:
            with self.span(name):
                return fn(*a, **kw)

        return traced

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    # -- output ---------------------------------------------------------

    def table(self) -> List[Dict[str, Any]]:
        """Per span name: calls, total and self seconds, largest self first."""
        covered: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
        rows: Dict[str, Dict[str, Any]] = {}
        for s in self.spans:
            row = rows.setdefault(
                s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = s["end"] - s["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered.get(s["id"], 0.0)
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    def write(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (complete events, microseconds)."""
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".", 1)[0],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": dict(s["args"], id=s["id"], parent=s["parent"], workload=self.workload),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
