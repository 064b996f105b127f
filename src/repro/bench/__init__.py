"""Benchmark harness: regenerate every table and figure of the paper.

:func:`repro.bench.run` is the single entrypoint for running any
workload on any system (G-Miner or a baseline) with the scaled
experiment defaults; batches of cells fan out over host cores via
:mod:`repro.parallel` (``python -m repro.bench run all --workers N``).
:mod:`repro.bench.report` renders rows the way the paper's tables do
("x" for OOM, "-" for over the time limit);
:mod:`repro.bench.experiments` defines one function per table/figure,
each returning an :class:`ExperimentReport` with its shape checks
evaluated; ``results/`` archives them and EXPERIMENTS.md quotes them.
"""

from repro.bench.runner import (
    EXPERIMENT_SPEC,
    DEFAULT_TIME_LIMIT,
    SYSTEMS,
    build_app,
    execute_request,
    prepare_dataset,
    run,
    run_many,
)
from repro.bench.report import Check, ExperimentReport, format_cell, render_table
from repro.bench import experiments

__all__ = [
    "EXPERIMENT_SPEC",
    "DEFAULT_TIME_LIMIT",
    "SYSTEMS",
    "build_app",
    "execute_request",
    "prepare_dataset",
    "run",
    "run_many",
    "Check",
    "ExperimentReport",
    "format_cell",
    "render_table",
    "experiments",
]
