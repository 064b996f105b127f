"""The traced pass: per-layer metrics measured from outside the program.

Each probe times calls into one layer's *public* functions on the
workload's own input, inside spans the harness records (``spans.py``);
nothing under ``src/`` is instrumented.  A probe runs only for the
workloads whose iteration enters its layer (``Workload.layers``); every
other metric of that layer reads 0 for the workload, so a traced run
always emits the full ``per_layer`` list of ``BENCHMARK.json``.

``metrics.LAYER_METRICS`` is the single definition of that list.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro import kernels
from repro.kernels import sketch as sketch_backend
from repro.core.lsh import MinHashLSH
from repro.core.rcv_cache import RCVCache
from repro.graph.datasets import clear_dataset_cache, load_dataset
from repro.graph.generators import preferential_attachment_graph
from repro.native import execute_chunk, graph_payload, make_data_source, seed_chunks
from repro.obs.env import environment_metadata
from repro.parallel.cache import BuildCache, set_build_cache
from repro.partitioning.bdg import BDGPartitioner
from repro.plans import compile_pattern, motif
from repro.plans.api import prepare_job
from repro.plans.executor import select_step_backends
from repro.service import MiningService
from repro.sim.engine import Simulator

import repro
from measure import count_failures, cpu_seconds, host_cpu_ticks, peak_rss_mib, steal_share
from metrics import LAYER_METRICS
from spans import Tracer

#: Iterations of each pool size in the native scaling probe.
POOL_ITERATIONS = 9


class Context:
    """What every probe needs: the workload, its input and the recorder."""

    def __init__(
        self, workload: Any, state: Any, tracer: Tracer, quick: bool, seed: int, out_dir: str
    ) -> None:
        self.out_dir = out_dir
        self.workload = workload
        self.state = state
        self.graph = workload.graph(state)
        self.tracer = tracer
        self.quick = quick
        self.seed = seed
        self.metrics: Dict[str, float] = {}
        #: Median untraced wall of one iteration in *this* process.
        self.wall = 0.0
        #: Answer of the last traced iteration (exact counters read here).
        self.answer: Any = None
        self.failures = 0
        self.checks = 0

    def timed(self, name: str, fn: Callable[[], Any]) -> Tuple[Any, float]:
        gc.collect()
        return self.tracer.timed(name, fn, workload=self.workload.name)

    def iteration_wall(self, **kwargs: Any) -> Tuple[Any, float]:
        """One untraced iteration, result consumed, GC'd heap first."""
        gc.collect()
        started = time.perf_counter()
        answer = self.workload.iterate(self.state, **kwargs)
        self.workload.digest(answer)
        return answer, time.perf_counter() - started


def edge_sample(graph: Any, limit: int, seed: int) -> List[Tuple[int, int]]:
    edges = [(u, v) for u in graph.vertices() for v in graph.neighbors(u) if u < v]
    random.Random(seed).shuffle(edges)
    return edges[:limit]


# ----------------------------------------------------------------------
# probes, one per layer
# ----------------------------------------------------------------------


def probe_graph(ctx: Context) -> None:
    m, graph = ctx.metrics, ctx.graph
    m["graph.build_s"] = ctx.tracer.total("graph.build")
    m["graph.vertices"] = graph.num_vertices
    m["graph.edges"] = graph.num_edges
    with kernels.use_backend(ctx.workload.backend):
        _, m["graph.adj_view_s"] = ctx.timed(
            "graph.adj_view",
            lambda: {v: kernels.as_array(graph.neighbors(v)) for v in graph.vertices()},
        )


def probe_partitioning(ctx: Context) -> None:
    config = ctx.workload.config
    workers = config.cluster.num_nodes * config.processes_per_node
    assignment, seconds = ctx.timed(
        "partitioning.bdg", lambda: BDGPartitioner().partition(ctx.graph, workers)
    )
    ctx.metrics["partitioning.bdg_s"] = seconds
    ctx.metrics["partitioning.edge_cut_share"] = assignment.edge_cut_fraction(ctx.graph)


def probe_kernels(ctx: Context) -> None:
    """Pairwise, batched and slice+membership set kernels over the
    workload's own adjacency, on the workload's backend."""
    m, graph = ctx.metrics, ctx.graph
    edges = edge_sample(graph, 300 if ctx.quick else 20_000, ctx.seed)
    seeds = sorted(graph.vertices())[: 40 if ctx.quick else 400]
    with kernels.use_backend(ctx.workload.backend):
        view = {v: kernels.as_array(graph.neighbors(v)) for v in graph.vertices()}

        def pairwise() -> int:
            return sum(kernels.intersect_count(view[u], view[v]) for u, v in edges)

        def batched() -> Tuple[int, int]:
            count = scanned = 0
            for v in seeds:
                higher = kernels.slice_gt(view[v], v)
                ids = kernels.tolist(higher)
                if ids:
                    c, s = kernels.intersect_count_many([view[u] for u in ids], ids, higher)
                    count += c
                    scanned += s
            return count, scanned

        def slice_contains() -> int:
            hits = 0
            for u, v in edges[: len(edges) // 5]:
                kernels.slice_gt(view[u], v)
                hits += sum(1 for flag in kernels.contains(view[v], graph.neighbors(u)) if flag)
            return hits

        _, seconds = ctx.timed("kernels.intersect_count", pairwise)
        m["kernels.intersect_count_per_s"] = len(edges) / seconds
        (_, scanned), seconds = ctx.timed("kernels.intersect_count_many", batched)
        m["kernels.intersect_many_per_s"] = len(seeds) / seconds
        m["kernels.scanned_items"] = scanned
        _, seconds = ctx.timed("kernels.slice_contains", slice_contains)
        m["kernels.slice_contains_per_s"] = max(1, len(edges) // 5) / seconds


def probe_sketch(ctx: Context) -> None:
    """Sketch build and estimate rates, and the sketch run against one
    exact bitset run of the same simulated job."""
    m, graph, workload = ctx.metrics, ctx.graph, ctx.workload
    params = workload.config.sketch_params()
    edges = edge_sample(graph, 100 if ctx.quick else 3_000, ctx.seed)
    with kernels.use_backend("sketch"), kernels.use_sketch_params(params):
        view = {v: kernels.as_array(graph.neighbors(v)) for v in graph.vertices()}
        _, m["kernels.sketch.build_s"] = ctx.timed(
            "kernels.sketch.build",
            lambda: [sketch_backend.sketch_of(handle, params) for handle in view.values()],
        )
        _, seconds = ctx.timed(
            "kernels.sketch.estimate",
            lambda: [kernels.intersect_count_estimate(view[u], view[v]) for u, v in edges],
        )
    m["kernels.sketch.estimate_per_s"] = len(edges) / seconds
    exact_config = workload.config.replace(kernel_backend="bitset", accuracy=None)
    walls = []
    for _ in range(1 if ctx.quick else 3):
        exact, wall = ctx.timed(
            "kernels.sketch.exact_bitset_run",
            lambda: workload.iterate(ctx.state, config=exact_config),
        )
        walls.append(wall)
    sketch = ctx.answer
    m["kernels.sketch.rel_error"] = abs(sketch.estimate.point - exact.value) / exact.value
    m["kernels.sketch.work_ratio"] = sketch.stats["work_units"] / exact.stats["work_units"]
    m["kernels.sketch.wall_ratio_vs_bitset"] = ctx.wall / statistics.median(walls)


def probe_mining(ctx: Context) -> None:
    (_, units), seconds = ctx.timed(
        "mining.sequential", lambda: ctx.workload.sequential(ctx.state)
    )
    ctx.metrics["mining.seq_s"] = seconds
    ctx.metrics["mining.work_units"] = units
    ctx.metrics["mining.work_units_per_s"] = units / seconds


def probe_plans(ctx: Context) -> None:
    m, workload = ctx.metrics, ctx.workload
    plan, m["plans.compile_s"] = ctx.timed(
        "plans.compile_pattern", lambda: compile_pattern(motif(workload.pattern))
    )
    _, m["plans.select_backends_s"] = ctx.timed(
        "plans.select_step_backends", lambda: select_step_backends(plan, ctx.graph)
    )
    (_, units), seconds = ctx.timed(
        "plans.count_plan_sequential", lambda: workload.sequential(ctx.state)
    )
    m["plans.seq_s"] = seconds
    m["plans.candidates_per_s"] = units / seconds


def probe_core(ctx: Context) -> None:
    """Engine overhead by subtraction, the cache and LSH micro-costs, the
    fixed cost of one tiny job, and the engine's exact counters."""
    m, graph, config = ctx.metrics, ctx.graph, ctx.workload.config
    results = ctx.workload.job_results(ctx.answer)
    stats = [r.stats for r in results]
    tasks = sum(s["tasks_created"] for s in stats)
    m["core.tasks_created"] = tasks
    m["core.vertices_pulled"] = sum(s["vertices_pulled"] for s in stats)
    hits = sum(s["cache_hits"] for s in stats)
    lookups = hits + sum(s["cache_misses"] for s in stats)
    m["core.cache_hit_rate"] = hits / lookups if lookups else 0.0
    m["core.disk_spills"] = sum(s["disk_spills"] for s in stats)
    m["core.tasks_migrated"] = sum(s["tasks_migrated"] for s in stats)
    m["core.host_us_per_task"] = ctx.wall * 1e6 / tasks
    iterations = ctx.tracer.calls("e2e.iteration")
    m["core.job_begin_s"] = ctx.tracer.total("core.job_begin") / iterations
    m["core.job_complete_s"] = ctx.tracer.total("core.job_complete") / iterations
    if "mining.seq_s" in m:
        m["core.engine_overhead_s"] = ctx.wall - m["mining.seq_s"]
        m["core.engine_overhead_share"] = m["core.engine_overhead_s"] / ctx.wall

    data = [graph.vertex_data(v) for v in graph.vertices()]

    def churn() -> int:
        # every insert past capacity evicts: the _pick_victim path
        cache = RCVCache(config.cache_capacity_bytes)
        for _ in range(1 if ctx.quick else 3):
            for vertex in data:
                cache.insert(vertex)
                cache.release(vertex.vid)
        return len(cache)

    _, seconds = ctx.timed("core.rcv_cache_churn", churn)
    m["core.rcv_insert_per_s"] = len(data) * (1 if ctx.quick else 3) / seconds
    lsh = MinHashLSH(signature_size=config.lsh_signature_size)
    _, seconds = ctx.timed(
        "core.lsh_signature", lambda: [lsh.signature(graph.neighbors(v)) for v in graph.vertices()]
    )
    m["core.lsh_signature_per_s"] = len(data) / seconds
    tiny = preferential_attachment_graph(16, 3, seed=ctx.seed)
    sim_config = config.replace(execution="sim", kernel_backend=None, accuracy=None)
    fixed = [
        ctx.timed("core.tiny_job", lambda: repro.mine(tiny, workload="tc", config=sim_config))[1]
        for _ in range(2 if ctx.quick else 7)
    ]
    m["core.job_fixed_s"] = statistics.median(fixed)


def probe_sim(ctx: Context) -> None:
    m, workload = ctx.metrics, ctx.workload
    results = workload.job_results(ctx.answer)
    m["sim.seconds"] = workload.sim_seconds(ctx.answer)
    m["sim.advance_s"] = ctx.tracer.total("sim.advance") / ctx.tracer.calls("e2e.iteration")
    m["sim.network_bytes"] = sum(r.network_bytes for r in results)
    m["sim.cpu_utilization"] = statistics.mean(r.cpu_utilization for r in results)
    m["sim.peak_memory_bytes"] = max(r.peak_memory_bytes for r in results)

    events = 2_000 if ctx.quick else 100_000
    sim = Simulator()
    left = [events]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            sim.schedule(1e-6, tick)

    sim.schedule(0.0, tick)
    _, seconds = ctx.timed("sim.noop_events", sim.run)
    m["sim.events_per_s"] = events / seconds


def probe_obs(ctx: Context) -> None:
    """One iteration with observability on: its cost, and the event
    count only an instrumented run reports."""
    m = ctx.metrics
    config = ctx.workload.config.replace(enable_obs=True)
    with ctx.tracer.span("obs.instrumented_iteration", workload=ctx.workload.name):
        result, wall = ctx.iteration_wall(config=config)
    m["obs.on_wall_ratio"] = wall / ctx.wall
    m["obs.spans"] = len(result.obs["spans"])
    events = result.obs["metrics"]["counters"]["sim.events"]
    m["sim.events"] = events
    m["sim.host_us_per_event"] = ctx.wall * 1e6 / events


def probe_verify(ctx: Context) -> None:
    config = ctx.workload.config.replace(verify=True)
    with ctx.tracer.span("verify.monitored_iteration", workload=ctx.workload.name):
        _, wall = ctx.iteration_wall(config=config)
    ctx.metrics["verify.on_wall_ratio"] = wall / ctx.wall


def probe_parallel(ctx: Context) -> None:
    """A registry dataset through a ``BuildCache`` in a scratch
    directory: built and persisted cold, then read back by a new cache."""
    m = ctx.metrics
    scratch = tempfile.mkdtemp(prefix="buildcache-", dir=ctx.out_dir)
    dataset = "skitter-s" if ctx.quick else "orkut-s"
    try:
        for key, span in (
            ("parallel.dataset_cold_s", "parallel.dataset_cold"),
            ("parallel.dataset_warm_s", "parallel.dataset_warm"),
        ):
            clear_dataset_cache()
            set_build_cache(BuildCache(directory=scratch))
            _, m[key] = ctx.timed(span, lambda: load_dataset(dataset))
    finally:
        set_build_cache(None)
        clear_dataset_cache()
        shutil.rmtree(scratch, ignore_errors=True)


def probe_native(ctx: Context) -> None:
    """The native engine's pieces run in-process, then whole jobs at one
    and two pool workers (noisy on a shared host: read, never gated)."""
    m, graph, workload = ctx.metrics, ctx.graph, ctx.workload
    config = workload.config
    payload, m["native.payload_s"] = ctx.timed("native.graph_payload", lambda: graph_payload(graph))
    m["native.payload_bytes"] = len(payload)
    chunks = seed_chunks(graph, config.native_chunk_size)
    m["native.chunks"] = len(chunks)
    app = prepare_job(
        graph, execution="native", backend=workload.backend, config=config, **workload.mine_args
    ).app
    chunk_seconds = []
    with ctx.tracer.span("native.inproc", workload=workload.name) as inproc:
        with kernels.use_backend(workload.backend):
            data_of = make_data_source(graph)
            for chunk_id, chunk in enumerate(chunks):
                _, seconds = ctx.timed(
                    "native.execute_chunk",
                    lambda: execute_chunk(app, graph, chunk_id, chunk, data_of),
                )
                chunk_seconds.append(seconds)
    m["native.inproc_s"] = inproc["end"] - inproc["start"]
    m["native.max_chunk_share"] = max(chunk_seconds) / sum(chunk_seconds)

    pool_sizes = (1, 2) if (os.cpu_count() or 1) >= 2 else (1,)
    walls: Dict[int, List[float]] = {w: [] for w in pool_sizes}
    cpus: Dict[int, List[float]] = {w: [] for w in pool_sizes}
    diag = {"steals": 0, "retries": 0, "respawns": 0, "fallback_chunks": 0}
    for _ in range(2 if ctx.quick else POOL_ITERATIONS):
        for workers in pool_sizes:  # alternate sizes so drift hits both
            cpu0 = cpu_seconds()
            with ctx.tracer.span(f"native.pool_w{workers}", workload=workload.name):
                result, wall = ctx.iteration_wall(config=config.replace(native_workers=workers))
            walls[workers].append(wall)
            cpus[workers].append(cpu_seconds() - cpu0)
            for key in diag:
                diag[key] += result.native[key]
    m["native.w1_wall_s"] = statistics.median(walls[1])
    if 2 in walls:
        m["native.w2_wall_s"] = statistics.median(walls[2])
        m["native.pool_speedup"] = m["native.w1_wall_s"] / m["native.w2_wall_s"]
        m["native.pool_cpu_ratio"] = statistics.median(cpus[2]) / statistics.median(cpus[1])
    for key, value in diag.items():
        m[f"native.{key}"] = value


def probe_service(ctx: Context) -> None:
    """Per-call costs from the traced replays, the same jobs standalone,
    and the service's own SLO report (virtual clock, exact)."""
    m, tracer, workload = ctx.metrics, ctx.tracer, ctx.workload
    replays = tracer.calls("e2e.iteration")
    m["service.submit_us"] = tracer.total("service.submit") * 1e6 / tracer.calls("service.submit")
    m["service.step_us"] = tracer.total("service.step") * 1e6 / tracer.calls("service.step")
    m["service.graph_for_s"] = tracer.total("service.graph_for") / replays

    service, submitted, report = ctx.answer
    completed = [(spec, handle) for spec, handle in submitted if handle is not None]
    graphs = [repro.service.graph_for(spec) for spec, _ in completed]

    def standalone() -> List[str]:
        return [
            repr(repro.mine(graph, workload=spec.workload, **spec.options).value)
            for (spec, _), graph in zip(completed, graphs)
        ]

    runs = [ctx.timed("service.standalone_jobs", standalone) for _ in range(1 if ctx.quick else 3)]
    values = runs[0][0]
    m["service.standalone_s"] = statistics.median(seconds for _, seconds in runs)
    ctx.checks += len(completed)
    ctx.failures += sum(
        1
        for (_, handle), value in zip(completed, values)
        if repr(service.result(handle).value) != value
    )
    m["service.overhead_share"] = (
        ctx.wall - m["service.graph_for_s"] - m["service.standalone_s"]
    ) / ctx.wall
    m["service.queue_wait_p99_vs"] = report.queue_wait_p99
    m["service.completion_p50_vs"] = report.completion_p50
    m["service.completion_p99_vs"] = report.completion_p99
    m["service.fairness_index"] = report.fairness_index
    m["service.jobs_rejected"] = report.jobs_rejected
    m["service.refused_share"] = report.jobs_rejected / len(submitted)


def calibrate() -> float:
    """A fixed pure-Python + big-int-popcount loop: how fast this host
    runs the interpreter right now, comparable across result sets."""
    started = time.perf_counter()
    acc = 0
    for i in range(75_000):
        acc += (i * i) % 7
    wide = (1 << 4096) - 1
    for i in range(15_000):
        acc += bin(wide >> (i % 64)).count("1")
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------


def traced_iteration(ctx: Context, index: int) -> Tuple[Any, Any, float]:
    """One iteration inside an ``e2e.iteration`` span.  A simulated
    batch job is driven through its three public phases (what ``run()``
    does), each in a span; the service replay records every ``submit`` /
    ``step`` / ``graph_for`` call by wrapping the public methods of the
    service instance."""
    workload, tracer = ctx.workload, ctx.tracer
    kwargs: Dict[str, Any] = {}
    if "service" in workload.layers:
        service = MiningService(workload.service_config)
        service.submit = tracer.wrap("service.submit", service.submit)
        service.step = tracer.wrap("service.step", service.step)
        kwargs = {
            "service": service,
            "graph_source": tracer.wrap("service.graph_for", repro.service.graph_for),
        }
    gc.collect()
    with tracer.span("e2e.iteration", workload=workload.name, iteration=index) as record:
        job = workload.make_job(ctx.state)
        if job is not None:
            with tracer.span("core.job_begin"):
                job.begin()
            with tracer.span("sim.advance"):
                job.advance()
            with tracer.span("core.job_complete"):
                answer = job.complete()
        else:
            answer = workload.iterate(ctx.state, **kwargs)
        digest = workload.digest(answer)
    return answer, digest, record["end"] - record["start"]


def traced_pass(workload: Any, seed: int, quick: bool, out_dir: str) -> Dict[str, Any]:
    """Set up, run paired untraced/traced iterations, then every probe of
    the layers this workload enters.  The pass does a fixed amount of
    work whatever ``--seconds`` says."""
    ticks0 = host_cpu_ticks()
    tracer = Tracer(workload.name)
    with tracer.span("graph.build", workload=workload.name):
        state = workload.prepare(seed, quick)
    ctx = Context(workload, state, tracer, quick, seed, out_dir)
    digests = [workload.digest(workload.iterate(state))]  # warm-up

    untraced: List[float] = []
    traced: List[float] = []
    for index in range(2 if quick else 4):
        untraced.append(ctx.iteration_wall()[1])
        ctx.answer, digest, wall = traced_iteration(ctx, index)
        digests.append(digest)
        traced.append(wall)
    ctx.wall = statistics.median(untraced)
    ctx.metrics["bench.trace_overhead_ratio"] = statistics.median(traced) / ctx.wall

    probes: Sequence[Tuple[str, Callable[[Context], None]]] = (
        ("graph", probe_graph),
        ("partitioning", probe_partitioning),
        ("kernels", probe_kernels),
        ("mining", probe_mining),
        ("plans", probe_plans),
        ("core", probe_core),
        ("sim", probe_sim),
        ("obs", probe_obs),
        ("verify", probe_verify),
        ("native", probe_native),
        ("service", probe_service),
        ("parallel", probe_parallel),
        ("kernels.sketch", probe_sketch),
    )
    for layer, probe in probes:
        if layer in workload.layers:
            probe(ctx)
    ctx.metrics["host.calib_s"] = statistics.median(calibrate() for _ in range(3 if quick else 5))
    ctx.metrics["host.steal_share"] = steal_share(ticks0, host_cpu_ticks())
    ctx.metrics["host.nproc"] = os.cpu_count() or 1

    unknown = set(ctx.metrics) - set(LAYER_METRICS)
    if unknown:
        raise SystemExit(f"probes emitted undeclared metrics: {sorted(unknown)}")
    failed = ctx.failures + count_failures(workload, digests, workload.oracle(state))
    trace_file = os.path.join(out_dir, f"trace-{workload.name}.json")
    tracer.write(trace_file)
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "metrics": {
            name: {"value": ctx.metrics.get(name, 0), "unit": unit}
            for name, (unit, _, _) in LAYER_METRICS.items()
        },
        "layer_table": tracer.table(),
        "trace_file": os.path.relpath(trace_file),
        "spans": len(tracer.spans),
        "attempted": ctx.checks + len(digests),
        "failed": failed,
        "correct": failed == 0,
        "peak_rss_mb": peak_rss_mib(),
        "env": environment_metadata(),
    }
