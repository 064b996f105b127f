"""Command-line entry point for the experiment harness.

Run one experiment (or all of them)::

    python -m repro.bench list                 # show experiment ids
    python -m repro.bench run table1           # one table/figure
    python -m repro.bench run all -o regen     # everything, archived
    python -m repro.bench run table3_tc_mcf --workers 8   # fan out cells
    python -m repro.bench run all --no-cache   # rebuild every input

Each experiment prints in the paper's format and, with ``-o``, is also
written to ``<dir>/<id>.txt`` plus a machine-readable ``<dir>/<id>.json``.
A shape check that fails is printed as failed and ``run`` exits 1; the
archive under ``results/`` is the regression gate (``diff -r results regen``).
``--trace-out``/``--metrics-out`` capture observability artifacts
(Chrome ``trace_event`` JSON and a metrics snapshot) from the runs;
since the ambient collector is process-local, these force ``--workers
1``.  Independent cells fan out over
``--workers`` processes (default: every host core) with results in
deterministic order, so the report *contents* never depend on the
worker count; generated datasets and partition assignments are reused
via a content-keyed build cache under ``--cache-dir`` (default
``.repro-cache/``) unless ``--no-cache`` is given.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench import experiments
from repro.bench.export import save_report
from repro.parallel import BuildCache, DEFAULT_CACHE_DIR, default_workers, parallel_context


def _registry():
    return {fn.__name__: fn for fn in experiments.ALL_EXPERIMENTS}


def cmd_list() -> int:
    for name, fn in _registry().items():
        doc = (fn.__doc__ or "").strip().splitlines()
        print(f"{name:<28} {doc[0] if doc else ''}")
    return 0


def cmd_explain(names, execution=None, backend=None) -> int:
    """Print the compiled plan / execution choice for each name, run nothing.

    Names are built-in workload ids (``tc``..``gc``) or motif names
    (``triangle``, ``tailed-triangle``, ...); the plan is compiled
    against a small generated graph (plans are graph-independent).
    Every name prints the same ``backend:`` line: ``auto`` resolves
    once per job, never per plan step.
    """
    import repro
    from repro.graph.generators import preferential_attachment_graph
    from repro.plans.builtins import BUILTIN_PLANS

    graph = preferential_attachment_graph(n=200, m=6, seed=0)
    status = 0
    for name in names:
        print(f"=== {name} ===")
        try:
            if name in BUILTIN_PLANS:
                text = repro.mine(
                    graph, workload=name, execution=execution,
                    backend=backend, explain=True,
                )
            else:
                text = repro.mine(
                    graph, pattern=name, execution=execution,
                    backend=backend, explain=True,
                )
        except (TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
            continue
        print(text)
        print()
    return status


def cmd_run(names, out_dir, workers, cache, trace_out=None, metrics_out=None) -> int:
    registry = _registry()
    if names == ["all"]:
        names = list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(registry)}", file=sys.stderr)
        return 2
    collector = None
    if trace_out or metrics_out:
        from repro.obs import ObsCollector, collecting

        # the ambient collector is process-local: pool workers would
        # run their jobs invisibly, so observability capture is serial
        if workers != 1:
            print("[--trace-out/--metrics-out force --workers 1]", file=sys.stderr)
            workers = 1
        collector = ObsCollector()
        capture = collecting(collector)
    else:
        from contextlib import nullcontext

        capture = nullcontext()
    failed = []
    with capture:
        for name in names:
            started = time.perf_counter()
            # one context per experiment: the footer covers exactly this
            # experiment's cells, while the BuildCache object (and its disk
            # level) is shared across the whole invocation
            with parallel_context(workers=workers, cache=cache) as runner:
                report = registry[name]()
                report.footer = runner.footer_summary()
            print(report)
            stats = runner.cache_stats()
            hits, misses = stats["hits"], stats["misses"]
            print(
                f"[{name} completed in {time.perf_counter() - started:.1f}s wall clock, "
                f"workers={runner.workers}, build cache: {hits} hits / {misses} misses]"
            )
            print()
            if out_dir:
                save_report(report, out_dir)
            failed += [(name, check) for check in report.failed_checks]
    if collector is not None:
        if trace_out:
            print(f"[trace: {collector.write_chrome_trace(trace_out)} "
                  f"({len(collector)} runs)]")
        if metrics_out:
            print(f"[metrics: {collector.write_metrics_json(metrics_out)}]")
    for name, check in failed:
        print(f"FAILED shape check in {name}: {check}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiment ids")
    run = sub.add_parser("run", help="run experiments by function name")
    run.add_argument("names", nargs="+", help="experiment names, or 'all'")
    run.add_argument("-o", "--out-dir", default=None, help="archive directory")
    run.add_argument(
        "-w", "--workers", type=int, default=None,
        help="experiment cells to run concurrently (processes; "
        "default: all host cores)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="disable the build cache (rebuild datasets/partitions every cell)",
    )
    run.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="build cache directory (default: %(default)s)",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome trace_event JSON (load in Perfetto) covering "
        "every job run; forces --workers 1",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a JSON metrics snapshot covering every job run; "
        "forces --workers 1",
    )
    run.add_argument(
        "--explain", action="store_true",
        help="treat names as workload/motif ids and print their compiled "
        "plan, execution mode and backend choice without running anything",
    )
    run.add_argument(
        "--execution", default=None, choices=("sim", "native"),
        help="execution mode shown by --explain (default: config default)",
    )
    run.add_argument(
        "--backend", default=None,
        choices=("auto", "reference", "numpy", "bitset"),
        help="kernel backend shown by --explain (default: config default)",
    )
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.explain:
        return cmd_explain(args.names, execution=args.execution,
                           backend=args.backend)
    workers = args.workers if args.workers is not None else default_workers()
    cache = None if args.no_cache else BuildCache(directory=args.cache_dir)
    return cmd_run(args.names, args.out_dir, workers, cache,
                   trace_out=args.trace_out, metrics_out=args.metrics_out)


if __name__ == "__main__":
    raise SystemExit(main())
