"""Wall-clock benchmark for the native execution engine.

Runs a workload × backend × worker-count grid under
``GMinerConfig(execution="native")`` and writes
``results/BENCH_native.json`` in the regression-gate schema
(:mod:`repro.obs.compare`): per-cell ``work_units``/``tasks_created``
are bit-identical across every backend and worker count (the engine's
equivalence contract), so the gate pins them exactly on any host,
while wall-clock quantities — untracked by the gate — carry the
``env`` block (CPU count, numpy version, ...) that makes them
attributable.

Two speedups are reported per cell:

* ``speedup_vs_serial`` — against the workload's *serial baseline*:
  the reference backend on one worker, i.e. the only way this repo
  could execute before the native engine grew backends and a pool;
* ``speedup_vs_same_backend_serial`` — against the same backend on one
  worker, isolating what the process pool alone buys (≈1.0 on a
  single-core host; the ``env`` block says which kind of host ran).

Run directly (``PYTHONPATH=src python benchmarks/native_bench.py``);
``--quick`` shrinks the graph for smoke runs (results not written).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import kernels
from repro.core.config import GMinerConfig
from repro.core.job import GMinerJob
from repro.graph.generators import preferential_attachment_graph
from repro.obs.compare import BENCH_SCHEMA
from repro.obs.env import environment_metadata
from repro.plans import PlanApp, compile_pattern, motif
from repro.apps import TriangleCountingApp

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "results", "BENCH_native.json"
)

GRAPH_SEED = 7

WORKER_COUNTS = (1, 2, 4)


def _workloads() -> List[Tuple[str, Any, Tuple[int, int]]]:
    """(name, app factory, (n, m)) triples — one legacy workload, one
    compiled plan, each on the graph regime that stresses it:

    * ``tc`` on a dense scale-free graph (average degree ~300), where
      candidate sets are long and the array backends' batched
      intersections dominate the runtime;
    * the tailed-triangle plan on a smaller graph — plan execution
      materialises partial embeddings in python, so its cells measure
      executor overhead more than kernel throughput.
    """
    return [
        ("tc", TriangleCountingApp, (1500, 150)),
        ("plan:tailed-triangle",
         lambda: PlanApp(compile_pattern(motif("tailed-triangle"))),
         (400, 30)),
    ]


def _run_cell(app_factory, graph, backend: str, workers: int):
    config = GMinerConfig(
        execution="native",
        native_workers=workers,
        kernel_backend=backend,
    )
    started = time.perf_counter()
    result = GMinerJob(app_factory(), graph, config).run()
    wall = time.perf_counter() - started
    return result, wall


def bench_native(
    scale: float = 1.0, seed: int = GRAPH_SEED
) -> Dict[str, Any]:
    backends = kernels.available_backends()
    cells: Dict[str, Dict[str, Any]] = {}
    graphs: Dict[str, Dict[str, int]] = {}
    for workload, app_factory, (n, m) in _workloads():
        n, m = max(32, int(n * scale)), max(4, int(m * scale))
        graph = preferential_attachment_graph(n, m, seed=seed)
        num_edges = sum(len(graph.neighbors(v)) for v in graph.vertices()) // 2
        graphs[workload] = {"n": n, "m": m, "seed": seed, "edges": num_edges}
        serial_wall: Optional[float] = None  # reference backend, 1 worker
        expected: Optional[Tuple[Any, float]] = None
        same_backend_serial: Dict[str, float] = {}
        for backend in backends:
            for workers in WORKER_COUNTS:
                result, wall = _run_cell(app_factory, graph, backend, workers)
                work = result.stats["work_units"]
                if backend == "reference" and workers == 1:
                    serial_wall = wall
                if workers == 1:
                    same_backend_serial[backend] = wall
                # the equivalence contract, re-checked on every cell
                if expected is None:
                    expected = (result.value, work)
                elif (result.value, work) != expected:
                    raise AssertionError(
                        f"{workload}/{backend}/w{workers}: value/work "
                        f"({result.value}, {work}) != {expected} — "
                        "bit-identity contract broken"
                    )
                cells[f"{workload}/{backend}/w{workers}"] = {
                    "wall_seconds": wall,
                    "speedup_vs_serial":
                        serial_wall / wall if serial_wall else None,
                    "speedup_vs_same_backend_serial":
                        same_backend_serial[backend] / wall,
                    "work_units": work,
                    "tasks_created": result.stats["tasks_created"],
                    "value": result.value,
                }
    return {
        "schema": BENCH_SCHEMA,
        "benchmark": "native execution engine",
        "env": environment_metadata(),
        "graphs": {"generator": "preferential_attachment", **graphs},
        "serial_baseline": "reference backend, 1 worker, per workload",
        "worker_counts": list(WORKER_COUNTS),
        "cells": cells,
    }


def save_report(report: Dict[str, Any], path: str = RESULTS_PATH) -> str:
    path = os.path.abspath(path)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the native execution engine grid."
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny graph, no results file (CI smoke)",
    )
    parser.add_argument("-o", "--out", default=RESULTS_PATH)
    args = parser.parse_args(argv)
    if args.quick:
        report = bench_native(scale=0.2)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    report = bench_native()
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"saved {save_report(report, args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
