"""Rendering experiment results the way the paper's tables do.

``"x"`` marks an out-of-memory failure, ``"-"`` a run that exceeded the
time limit, a number the elapsed simulated seconds — matching the
legend of Tables 1 and 3.  :class:`ExperimentReport` is the structured
record an experiment produces; ``results/`` archives it as text and JSON
and EXPERIMENTS.md quotes the text.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.core.job import JobResult, JobStatus, jsonable


def format_cell(result: Optional[JobResult], metric: str = "time") -> str:
    """One table cell: per the paper, "x" = OOM, "-" = over limit."""
    if result is None:
        return "n/a"  # the system cannot express the workload
    if result.status is JobStatus.OOM:
        return "x"
    if result.status is JobStatus.TIMEOUT:
        return "-"
    if metric == "time":
        return f"{result.total_seconds:.3f}"
    if metric == "mining":
        return f"{result.mining_seconds:.3f}"
    if metric == "cpu":
        return f"{100 * result.cpu_utilization:.1f}%"
    if metric == "mem":
        return f"{result.peak_memory_bytes / 1e6:.2f}MB"
    if metric == "net":
        return f"{result.network_bytes / 1e6:.2f}MB"
    raise ValueError(f"unknown metric {metric!r}")


def render_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[str]],
    row_labels: Sequence[str],
    label_header: str = "",
) -> str:
    """Fixed-width ASCII table."""
    widths = [max(len(label_header), *(len(lbl) for lbl in row_labels))]
    for c, col in enumerate(columns):
        widths.append(max(len(col), *(len(r[c]) for r in rows)) if rows else len(col))
    lines = [title]
    header = label_header.ljust(widths[0]) + "".join(
        f"  {col:>{widths[i + 1]}}" for i, col in enumerate(columns)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for label, row in zip(row_labels, rows):
        lines.append(
            label.ljust(widths[0])
            + "".join(f"  {cell:>{widths[i + 1]}}" for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[Any],
    series: Dict[str, Sequence[float]],
    fmt: str = "{:.3f}",
) -> str:
    """Tabular rendering of figure data (x column + one column per line)."""
    names = sorted(series)
    columns = [x_label] + names
    rows = []
    for i, x in enumerate(xs):
        rows.append([str(x)] + [fmt.format(series[name][i]) for name in names])
    widths = [max(len(c), *(len(r[j]) for r in rows)) if rows else len(c)
              for j, c in enumerate(columns)]
    lines = [title]
    lines.append("  ".join(c.rjust(widths[j]) for j, c in enumerate(columns)))
    lines.append("-" * (sum(widths) + 2 * (len(columns) - 1)))
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
    return "\n".join(lines)


@dataclass
class Check:
    """One shape claim of the paper, evaluated once by its experiment.

    ``name`` states the claim with its threshold, ``detail`` carries the
    measured numbers.  A failed check stays in the report (rendered as
    failed) and makes ``python -m repro.bench run`` exit 1.
    """

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.name} [{self.detail}]" if self.detail else self.name


@dataclass
class ExperimentReport:
    """Structured outcome of one table/figure reproduction.

    ``footer`` carries host-level accounting (per-cell wall clock,
    build-cache hits, worker count) attached by the CLI; it is
    deliberately *not* part of ``data``, which stays byte-identical
    across serial and parallel runs.
    """

    experiment_id: str
    title: str
    rendered: str
    data: Dict[str, Any] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)  # the paper's shape claims
    notes: List[str] = field(default_factory=list)  # documented deviations
    footer: Optional[str] = None  # host-level accounting (not in data)

    def render(self, with_footer: bool = True) -> str:
        parts = [f"== {self.experiment_id}: {self.title} ==", self.rendered]
        held = [c for c in self.checks if c.passed]
        for label, claims in (("shape checks", held), ("FAILED shape checks", self.failed_checks)):
            if claims:
                parts.append(f"{label}: " + "; ".join(map(str, claims)))
        if self.notes:
            parts.append("notes: " + "; ".join(self.notes))
        if with_footer and self.footer:
            parts.append(self.footer)
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()

    @property
    def failed_checks(self) -> List[Check]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> Dict[str, Any]:
        """Flatten to JSON-serialisable primitives (nested JobResults
        via :meth:`JobResult.to_dict`); round-trips without the export
        module."""
        def convert(value: Any) -> Any:
            if isinstance(value, JobResult):
                return value.to_dict()
            if isinstance(value, dict):
                return {str(k): convert(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [convert(v) for v in value]
            return jsonable(value)

        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rendered": self.rendered,
            "checks": [asdict(c) for c in self.checks],
            "notes": list(self.notes),
            "data": convert(self.data),
        }
