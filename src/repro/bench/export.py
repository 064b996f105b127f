"""Exporting job results and experiment reports as JSON.

Serialisation lives on the result types themselves —
:meth:`repro.core.job.JobResult.to_dict` and
:meth:`repro.bench.report.ExperimentReport.to_dict`; this module holds
:func:`save_json`/:func:`save_report`, the pieces about files.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict

from repro.bench.report import ExperimentReport


def save_json(record: Dict[str, Any], path: str) -> str:
    """Write a record as pretty JSON, creating parent directories."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def save_report(report: ExperimentReport, directory: str = "results") -> Dict[str, str]:
    """Archive a report as both ``<id>.txt`` and ``<id>.json``.

    The text file is the rendering EXPERIMENTS.md quotes; the JSON
    sibling carries the same experiment as structured data
    (:meth:`ExperimentReport.to_dict`).  Neither includes the
    host-accounting footer, so artifacts stay byte-identical across
    worker counts and cache states.  Returns the paths written, keyed
    by format.
    """
    os.makedirs(directory, exist_ok=True)
    txt_path = os.path.join(directory, f"{report.experiment_id}.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(report.render(with_footer=False) + "\n")
    json_path = os.path.join(directory, f"{report.experiment_id}.json")
    save_json(report.to_dict(), json_path)
    return {"txt": txt_path, "json": json_path}
