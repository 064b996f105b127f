"""The native execution engine's contracts.

Three families of guarantees:

* **sim-vs-native equivalence** — every schedule-independent workload
  (tc/gm/gl/cd/gc and any compiled plan) produces the identical value,
  ``num_results`` and total work-unit charges under
  ``execution="native"`` as under the simulator, at any worker count;
  MCF (whose branch-and-bound pruning feeds on the evolving global
  bound, a schedule artefact) still agrees on the answer and the
  aggregated bound;
* **native determinism** — the full result is byte-identical across
  worker counts and repeated runs, the dispatch order notwithstanding;
* **refusals and knobs** — mismatched failure plans fail at
  construction, config and budget validation reject nonsense,
  ``backend="auto"`` never changes explicit-backend results,
  ``explain=True`` runs nothing.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import repro
from repro import kernels
from repro.apps import (
    CommunityDetectionApp,
    GraphClusteringApp,
    GraphMatchingApp,
    GraphletCountingApp,
    MaxCliqueApp,
    TriangleCountingApp,
)
from repro.core.config import GMinerConfig
from repro.core.job import GMinerJob, JobStatus
from repro.core.task import peek_task_id
from repro.graph.graph import Graph, VertexData
from repro.graph.generators import random_attributes
from repro.mining.cost import WorkMeter
from repro.native import execute_chunk, run_native, seed_chunks
from repro.native.runtime import chunk_hook
from repro.plans import PlanApp, compile_pattern, count_plan_sequential, motif
from repro.plans.api import prepare_job
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan
from repro.verify.metamorphic import normalize_value

from .conftest import make_clustered_graph
from .test_plans_execution import RUNNER_PLANS

#: Worker counts the equivalence tests sweep.  ``REPRO_NATIVE_TEST_WORKERS``
#: overrides (comma-separated), so CI can pin the multi-process axis
#: (e.g. ``2``) to what its runner actually has cores for.
WORKER_COUNTS = tuple(
    int(w) for w in os.environ["REPRO_NATIVE_TEST_WORKERS"].split(",")
) if os.environ.get("REPRO_NATIVE_TEST_WORKERS") else (1, 2, 4)
#: Small chunks so even the test graphs give 2+ workers several claims each.
CHUNK = 16


def _attributed_graph():
    graph = make_clustered_graph()
    random_attributes(graph, seed=11)
    return graph


def _app_factories():
    """(workload, graph, app factory) for all six legacy workloads."""
    plain = make_clustered_graph()
    labeled = make_clustered_graph(labeled=True)
    attributed = _attributed_graph()
    exemplars = sorted(attributed.vertices())[:3]
    return [
        ("tc", plain, TriangleCountingApp),
        ("mcf", plain, MaxCliqueApp),
        ("gm", labeled, GraphMatchingApp),
        ("gl", plain, lambda: GraphletCountingApp(k=4, classify=True)),
        ("cd", attributed, CommunityDetectionApp),
        ("gc", attributed,
         lambda: GraphClusteringApp(
             [attributed.attributes(e) for e in exemplars])),
    ]


def _native(app_factory, graph, workers, **config_overrides):
    config = GMinerConfig(
        execution="native",
        native_workers=workers,
        native_chunk_size=CHUNK,
        **config_overrides,
    )
    return GMinerJob(app_factory(), graph, config).run()


def _sim(app_factory, graph):
    config = GMinerConfig(
        cluster=ClusterSpec(num_nodes=4, cores_per_node=2)
    )
    return GMinerJob(app_factory(), graph, config).run()


def _comparable_dict(result):
    """``to_dict`` minus the deliberately schedule/host-dependent part."""
    out = result.to_dict()
    out.pop("native", None)
    return out


# ----------------------------------------------------------------------
# sim-vs-native equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "workload", ["tc", "mcf", "gm", "gl", "cd", "gc"]
)
def test_six_workloads_match_sim_at_all_worker_counts(workload):
    _, graph, factory = next(
        row for row in _app_factories() if row[0] == workload
    )
    sim = _sim(factory, graph)
    assert sim.status is JobStatus.OK
    natives = [_native(factory, graph, w) for w in WORKER_COUNTS]
    # native runs are bit-identical to each other at every worker count
    for other in natives[1:]:
        assert _comparable_dict(other) == _comparable_dict(natives[0])
    native = natives[0]
    assert native.status is JobStatus.OK
    if workload == "mcf":
        # the one schedule-dependent workload: the evolving global bound
        # prunes differently under different schedules, so only the
        # answer and the aggregated bound are required to agree
        assert normalize_value("mcf", native.value) == normalize_value(
            "mcf", sim.value
        )
        assert native.aggregated == sim.aggregated
        return
    assert native.value == sim.value
    assert native.num_results == sim.num_results
    assert native.stats["tasks_created"] == sim.stats["tasks_created"]
    assert sim.stats.get("re_pulls", 0) == 0  # precondition for work identity
    assert native.stats["work_units"] == sim.stats["work_units"]


@pytest.mark.parametrize(
    "pattern", ["triangle", "tailed-triangle", "diamond"]
)
def test_compiled_motifs_match_sim_at_all_worker_counts(pattern):
    graph = make_clustered_graph()
    factory = lambda: PlanApp(compile_pattern(motif(pattern)))
    sim = _sim(factory, graph)
    natives = [_native(factory, graph, w) for w in WORKER_COUNTS]
    for other in natives[1:]:
        assert _comparable_dict(other) == _comparable_dict(natives[0])
    native = natives[0]
    assert native.status is JobStatus.OK
    assert native.value == sim.value
    assert native.num_results == sim.num_results
    assert native.stats["tasks_created"] == sim.stats["tasks_created"]
    assert native.stats["work_units"] == sim.stats["work_units"]


@pytest.mark.parametrize("plan", RUNNER_PLANS, ids=lambda plan: plan.name)
def test_native_plan_path_matches_sim_on_runner_queries(plan):
    """Plan chunks run straight through the step runner, yet report
    what one simulated ``PlanTask`` per admissible root does — on every
    runner branch: labels, attribute predicates, upper bounds, probes."""
    # labelled and attributed, so every runner query finds embeddings
    graph = make_clustered_graph(labeled=True, n=48, m=3)
    random_attributes(graph, seed=7)
    factory = lambda: PlanApp(plan)
    sim = _sim(factory, graph)
    natives = [_native(factory, graph, w) for w in (1, 2)]
    assert natives[1].stats == natives[0].stats
    native = natives[0]
    assert native.status is JobStatus.OK
    assert native.value == sim.value
    assert native.num_results == sim.num_results
    assert native.stats["tasks_created"] == sim.stats["tasks_created"]
    assert native.stats["rounds_executed"] == sim.stats["rounds_executed"]
    assert sim.stats.get("re_pulls", 0) == 0  # precondition for work identity
    assert native.stats["work_units"] == sim.stats["work_units"]


def test_native_plan_path_allocates_no_task():
    """The native engine runs a plan with no task objects, and its
    chunks add up to the sequential plan run plus the seed scan."""
    graph = make_clustered_graph()
    plan = compile_pattern(motif("tailed-triangle"))
    before = peek_task_id()
    result = _native(lambda: PlanApp(plan), graph, 1)
    assert result.value > 0
    assert peek_task_id() == before

    app = PlanApp(plan)
    meter = WorkMeter()
    value = count_plan_sequential(plan, graph, meter)
    scan = sum(app.seed_cost(graph.vertex_data(v)) for v in graph.vertices())
    outcomes = [
        execute_chunk(app, graph, chunk_id, chunk)
        for chunk_id, chunk in enumerate(seed_chunks(graph, 64))
    ]
    assert len(outcomes) > 1
    assert sum(sum(o.results) for o in outcomes) == value == result.value
    assert sum(o.work_units for o in outcomes) == meter.units + scan
    assert sum(o.tasks_created for o in outcomes) == result.stats["tasks_created"]
    assert sum(o.rounds for o in outcomes) == result.stats["rounds_executed"]


class _TaskLoopTC(TriangleCountingApp):
    """tc with an overriding ``make_task``: the task loop's reference."""

    def make_task(self, vertex):
        return super().make_task(vertex)


def _tc_edge_case_graphs():
    """Graphs whose seeds hit every admission branch."""
    clustered = make_clustered_graph(n=60, m=4, seed=5)
    edges = [(u, v) for u in clustered.vertices()
             for v in clustered.neighbors(u) if u < v]
    # a degree-2 triangle seed, an open wedge (an admitted seed that
    # counts 0), its leaves (fewer than two higher neighbours),
    # isolated vertices, and negative ids (the bitset's list fallback)
    extra = [(60, 61), (61, 62), (60, 62), (63, 64), (63, 65)]
    with_isolated = Graph.from_edges(edges + extra, vertices=range(70))
    negative = Graph.from_edges([(u - 30, v - 30) for u, v in edges + extra])
    return [clustered, with_isolated, negative]


@pytest.mark.parametrize("backend", [*kernels.available_backends(), "sketch"])
def test_native_tc_path_matches_task_loop_chunk_by_chunk(backend):
    """tc chunks skip the task objects, yet each chunk reports the task
    loop's results (in seed order, zeros included; estimates under
    the sketch backend), units, tasks and rounds."""
    with kernels.use_backend(backend):
        for graph in _tc_edge_case_graphs():
            for size in (1, 7, 64):
                for chunk_id, chunk in enumerate(seed_chunks(graph, size)):
                    hook = execute_chunk(
                        TriangleCountingApp(), graph, chunk_id, chunk
                    )
                    loop = execute_chunk(_TaskLoopTC(), graph, chunk_id, chunk)
                    assert hook.results == loop.results
                    assert hook.work_units == loop.work_units
                    assert hook.tasks_created == loop.tasks_created
                    assert hook.rounds == loop.rounds == loop.tasks_created
                    assert hook.offers == loop.offers == []


def test_native_tc_path_allocates_no_task():
    graph = make_clustered_graph()
    sim = _sim(TriangleCountingApp, graph)
    before = peek_task_id()
    result = _native(TriangleCountingApp, graph, 1)
    assert peek_task_id() == before
    assert result.value == sim.value > 0
    assert result.num_results == sim.num_results
    for key in ("tasks_created", "rounds_executed", "work_units"):
        assert result.stats[key] == sim.stats[key], key


def test_native_tc_path_is_not_inherited_by_a_make_task_override():
    """A subclass that overrides ``make_task`` alone keeps its task
    generator: it runs the task loop, one task per admitted seed."""
    assert chunk_hook(TriangleCountingApp()) is not None
    assert chunk_hook(_TaskLoopTC()) is None

    class _OwnHook(_TaskLoopTC):
        def run_seeds(self, vids, data_of, charge):
            return super().run_seeds(vids, data_of, charge)

    # the hook's class must also define the make_task in effect
    assert chunk_hook(_OwnHook()) is None

    graph = make_clustered_graph()
    before = peek_task_id()
    result = _native(_TaskLoopTC, graph, 1)
    assert peek_task_id() - before == result.stats["tasks_created"] > 0


def test_mine_execution_native_roundtrip(small_social_graph):
    sim = repro.mine(small_social_graph, pattern="triangle")
    native = repro.mine(
        small_social_graph, pattern="triangle", execution="native"
    )
    assert native.value == sim.value
    assert native.stats["work_units"] == sim.stats["work_units"]
    assert native.native["execution"] == "native"


# ----------------------------------------------------------------------
# native determinism
# ----------------------------------------------------------------------


def test_repeated_native_runs_byte_identical():
    graph = make_clustered_graph()
    first = _native(TriangleCountingApp, graph, 2)
    second = _native(TriangleCountingApp, graph, 2)
    assert json.dumps(_comparable_dict(first), sort_keys=True) == json.dumps(
        _comparable_dict(second), sort_keys=True
    )


def test_native_diagnostics_live_outside_stats():
    graph = make_clustered_graph()
    result = _native(TriangleCountingApp, graph, 2)
    assert set(result.native) == {
        "execution", "workers", "chunk_size", "steals", "wall_seconds",
        "backend",
        # supervision tallies (PR 8): all zero on a fault-free run, and
        # kept out of stats so stats stay byte-comparable under chaos
        "crashes", "hangs", "retries", "respawns", "chunk_errors",
        "leases_expired", "fallback_chunks",
    }
    assert result.native["workers"] == 2
    assert "wall_seconds" not in result.stats
    assert result.to_dict()["native"]["chunk_size"] == CHUNK
    for key in ("crashes", "hangs", "retries", "respawns", "chunk_errors",
                "leases_expired", "fallback_chunks"):
        assert result.native[key] == 0, key


@pytest.mark.parametrize(
    "factory",
    [TriangleCountingApp, lambda: PlanApp(compile_pattern(motif("tailed-triangle")))],
    ids=["tc", "tailed-triangle"],
)
def test_spawn_pool_matches_fork_pool(monkeypatch, factory):
    """Under spawn, ``multiprocessing`` pickles the app and the graph
    (without its caches) into each worker; the answer cannot move."""
    from repro.native import engine

    graph = make_clustered_graph()
    forked = _native(factory, graph, 2)
    monkeypatch.setattr(
        engine, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    spawned = _native(factory, graph, 2)
    assert spawned.native["workers"] == 2
    assert spawned.value == forked.value
    assert spawned.num_results == forked.num_results
    assert spawned.stats == forked.stats


def test_pooled_job_warms_every_handle_in_the_parent():
    from repro.kernels.bitset import BitsetIds

    graph = make_clustered_graph()
    _native(TriangleCountingApp, graph, 2, kernel_backend="bitset")
    for vid in graph.vertices():
        backend, handle = graph.vertex_data(vid).__dict__["_neighbors_array"]
        assert backend == "bitset"
        assert isinstance(handle, BitsetIds)


def test_seed_chunks_cover_every_vertex_once():
    graph = make_clustered_graph()
    chunks = seed_chunks(graph, 16)
    flat = [vid for chunk in chunks for vid in chunk]
    assert flat == sorted(graph.vertices())
    assert all(len(chunk) <= 16 for chunk in chunks)


# ----------------------------------------------------------------------
# pool edge cases
# ----------------------------------------------------------------------


def test_zero_seed_graph():
    """A graph with no vertices at all: nothing to chunk, no pool."""
    from repro.graph.graph import Graph

    graph = Graph.from_edges([], vertices=[])
    result = _native(TriangleCountingApp, graph, 4)
    assert result.status is JobStatus.OK
    assert result.value is None
    assert result.num_results == 0
    assert result.stats["native_chunks"] == 0
    assert result.native["workers"] == 1  # clamped: no chunks to fan out


def test_edgeless_graph_produces_empty_results():
    from repro.graph.graph import Graph

    graph = Graph.from_edges([], vertices=list(range(40)))
    result = _native(TriangleCountingApp, graph, 2)
    assert result.status is JobStatus.OK
    assert result.value is None
    assert result.num_results == 0
    assert result.stats["native_chunks"] == 3  # 40 vertices / CHUNK


def test_fewer_chunks_than_workers_clamps_pool():
    graph = make_clustered_graph(n=24)  # 24 vertices -> 2 chunks of 16
    chunks = seed_chunks(graph, CHUNK)
    assert 1 < len(chunks) < 8
    clamped = _native(TriangleCountingApp, graph, 8)
    serial = _native(TriangleCountingApp, graph, 1)
    assert clamped.native["workers"] == len(chunks)
    assert _comparable_dict(clamped) == _comparable_dict(serial)


def test_claimed_chunk_failure_retried_exactly_once():
    """Lease-owner accounting: the lease follows the dispatch.

    Worker 0 is made a straggler, so which worker the parent hands the
    flaky last chunk to is not known in advance.  A chunk that fails on
    the worker it was dispatched to is charged exactly one attempt and
    retried exactly once, with the final result bit-identical to the
    fault-free run.
    """
    from repro.native import NativeFaultPlan

    graph = make_clustered_graph()
    flaky = len(seed_chunks(graph, 8)) - 1
    plan = (
        NativeFaultPlan(seed=3)
        .slow(0, delay=0.15)
        .flaky_chunk(flaky, failures=1)
    )
    config = GMinerConfig(
        execution="native", native_workers=2, native_chunk_size=8
    )
    chaotic = GMinerJob(TriangleCountingApp(), graph, config, plan).run()
    clean = GMinerJob(TriangleCountingApp(), graph, config).run()
    assert chaotic.native["chunk_errors"] == 1
    assert chaotic.native["retries"] == 1
    assert chaotic.native["crashes"] == 0
    assert _comparable_dict(chaotic) == _comparable_dict(clean)


def test_supervisor_dispatches_every_chunk_exactly_once():
    """Parent-side dispatch: a fault-free four-worker pool sends each
    chunk out once, as attempt 0, and every outcome comes back under
    its own chunk id."""
    from repro.native.engine import _pool_context
    from repro.native.supervisor import Supervisor

    dispatched = []

    class Recording(Supervisor):
        def _started(self, chunk_id, attempt, tid):
            dispatched.append((chunk_id, attempt))
            super()._started(chunk_id, attempt, tid)

    graph = make_clustered_graph()
    chunks = seed_chunks(graph, 4)
    assert len(chunks) >= 20
    supervisor = Recording(
        ctx=_pool_context(),
        app=TriangleCountingApp(),
        graph=graph,
        backend=kernels.get_backend(),
        chunks=chunks,
        num_workers=4,
    )
    outcomes, diag = supervisor.run()
    assert sorted(dispatched) == [(c, 0) for c in range(len(chunks))]
    assert diag["retries"] == 0
    assert supervisor.attempts == [0] * len(chunks)
    assert sorted(outcomes) == list(range(len(chunks)))
    assert all(outcome.chunk_id == c for c, outcome in outcomes.items())
    assert multiprocessing.active_children() == []


def test_failed_run_leaves_no_live_children(monkeypatch):
    """Shutdown hygiene: an interrupt mid-run terminates and joins the
    whole pool — no orphan workers, no leaked queue feeder threads."""
    from repro.native.supervisor import Supervisor

    original = Supervisor._dispatch
    calls = {"n": 0}

    def interrupt(self):
        calls["n"] += 1
        if calls["n"] >= 2:  # let the pool actually start first
            raise KeyboardInterrupt
        return original(self)

    monkeypatch.setattr(Supervisor, "_dispatch", interrupt)
    graph = make_clustered_graph()
    # a straggler pool so the run is still in flight when we interrupt
    from repro.native import NativeFaultPlan

    plan = NativeFaultPlan(seed=1).slow(delay=0.2)
    config = GMinerConfig(
        execution="native", native_workers=2, native_chunk_size=8
    )
    with pytest.raises(KeyboardInterrupt):
        GMinerJob(TriangleCountingApp(), graph, config, plan).run()
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# refusals and knobs
# ----------------------------------------------------------------------


def test_native_refuses_failure_plan_direct():
    graph = make_clustered_graph()
    plan = FailurePlan(seed=5).kill(0, at_time=0.05, recovery_delay=0.02)
    with pytest.raises(ValueError, match="failure_plan"):
        run_native(TriangleCountingApp(), graph, failure_plan=plan)


def test_native_refuses_failure_plan_via_job():
    # refused at construction, like a NativeFaultPlan on a sim job: a
    # mismatched plan never reaches a queue or a running slot
    graph = make_clustered_graph()
    plan = FailurePlan(seed=5).kill(0, at_time=0.05, recovery_delay=0.02)
    config = GMinerConfig(execution="native", checkpoint_interval=0.05)
    with pytest.raises(ValueError, match="sim"):
        GMinerJob(TriangleCountingApp(), graph, config, plan)
    with pytest.raises(ValueError, match="failure_plan"):
        prepare_job(
            graph, workload="tc", execution="native",
            failure_plan=FailurePlan().kill(0, at_time=0.1),
        )


def test_config_validation():
    with pytest.raises(ValueError, match="execution"):
        GMinerConfig(execution="gpu")
    with pytest.raises(ValueError, match="native_workers"):
        GMinerConfig(native_workers=0)
    with pytest.raises(ValueError, match="native_chunk_size"):
        GMinerConfig(native_chunk_size=0)


def test_supervision_budget_validation():
    from repro.native import NativeFaultPlan

    # the budgets ride on the plan, so no config can set them for a
    # simulated job, and nonsense values fail at validation
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="chunk_deadline"):
            NativeFaultPlan(chunk_deadline=bad).validate()
    with pytest.raises(ValueError, match="max_chunk_retries"):
        NativeFaultPlan(max_chunk_retries=-1).validate()
    with pytest.raises(ValueError, match="max_respawns"):
        NativeFaultPlan(max_respawns=-1).validate()
    # a bad budget surfaces at job construction, not in the pool
    config = GMinerConfig(execution="native")
    with pytest.raises(ValueError, match="max_respawns"):
        GMinerJob(
            TriangleCountingApp(), make_clustered_graph(), config,
            NativeFaultPlan(max_respawns=-1),
        )
    # the happy path validates (0 is a legal bound for both counts),
    # and budgets alone inject nothing
    plan = NativeFaultPlan(
        chunk_deadline=30.0, max_chunk_retries=0, max_respawns=0
    )
    plan.validate()
    assert plan.empty
    defaults = NativeFaultPlan()
    assert (defaults.chunk_deadline, defaults.max_chunk_retries,
            defaults.max_respawns) == (60.0, 2, 2)


@pytest.mark.parametrize(
    "factory",
    [TriangleCountingApp, lambda: PlanApp(compile_pattern(motif("tailed-triangle")))],
    ids=["tc", "tailed-triangle"],
)
def test_single_worker_without_plan_creates_no_process(monkeypatch, factory):
    """One worker and no fault plan run in-process: the engine never
    asks for a process context, so no worker process exists."""
    from repro.native import engine

    def no_pool():
        raise AssertionError("a 1-worker job without a plan built a pool")

    graph = make_clustered_graph()
    pooled = _native(factory, graph, 2)
    monkeypatch.setattr(engine, "_pool_context", no_pool)
    inproc = _native(factory, graph, 1)
    assert inproc.native["workers"] == 1
    assert _comparable_dict(inproc) == _comparable_dict(pooled)
    assert multiprocessing.active_children() == []


def test_auto_backend_leaves_explicit_backends_unchanged(small_social_graph):
    """The pin: explicit backends bypass the auto machinery entirely."""
    explicit = {
        backend: repro.mine(
            small_social_graph, pattern="tailed-triangle", backend=backend
        )
        for backend in ("reference", "bitset")
    }
    baseline = repro.mine(small_social_graph, pattern="tailed-triangle")
    for backend, result in explicit.items():
        assert result.value == baseline.value
        assert result.stats == baseline.stats, backend
    auto = repro.mine(
        small_social_graph, pattern="tailed-triangle", backend="auto"
    )
    assert auto.value == baseline.value
    assert auto.stats["work_units"] == baseline.stats["work_units"]


def test_auto_backend_selects_per_step(small_social_graph):
    from repro.plans.executor import select_step_backends

    plan = compile_pattern(motif("tailed-triangle"))
    selected = select_step_backends(plan, small_social_graph)
    assert len(selected) == len(plan.steps)
    assert all(
        backend in ("reference", "numpy", "bitset") for backend in selected
    )


@pytest.mark.parametrize("execution", ["sim", "native"])
def test_auto_backend_resolves_once_per_job(monkeypatch, execution):
    """``backend="auto"`` is one backend for the whole job: every
    VertexData handle the job reads is built under it, none is
    re-converted between plan steps."""
    touched = []
    neighbors_array = VertexData.neighbors_array

    def spy(data):
        handle = neighbors_array(data)
        touched.append(data.__dict__["_neighbors_array"][0])
        return handle

    monkeypatch.setattr(VertexData, "neighbors_array", spy)
    with kernels.use_backend("auto") as resolved:
        pass
    graph = make_clustered_graph()
    config = GMinerConfig(execution=execution)
    if execution == "native":
        config = config.replace(native_workers=1)  # in-process: the spy sees it
    result = repro.mine(
        graph, pattern="tailed-triangle", backend="auto", config=config
    )
    assert result.ok
    assert touched and set(touched) == {resolved}


def test_native_reports_the_backend_it_ran_under(small_social_graph):
    with kernels.use_backend("auto") as resolved:
        pass
    tc = repro.mine(
        small_social_graph, workload="tc", execution="native", backend="auto"
    )
    assert tc.native["backend"] == resolved
    # a process default other than the job's must not leak into the report
    with kernels.use_backend("bitset"):
        plan = repro.mine(
            small_social_graph, pattern="tailed-triangle",
            config=GMinerConfig(execution="native", native_workers=1),
            backend="auto",
        )
        default = repro.mine(
            small_social_graph, workload="tc", execution="native"
        )
    assert plan.native["backend"] == resolved
    assert default.native["backend"] == "bitset"


def test_mine_rejects_unknown_backend(small_social_graph):
    with pytest.raises(ValueError, match="backend"):
        repro.mine(small_social_graph, workload="tc", backend="cuda")


def test_explain_returns_text_without_running(small_social_graph):
    text = repro.mine(
        small_social_graph, pattern="tailed-triangle",
        execution="native", backend="auto", explain=True,
    )
    assert isinstance(text, str)
    assert "plan 'tailed-triangle'" in text
    assert "execution: native" in text
    with kernels.use_backend("auto") as resolved:
        pass
    line = f"backend: auto ({resolved})"
    assert line in text.splitlines()
    tc_auto = repro.mine(
        small_social_graph, workload="tc",
        execution="native", backend="auto", explain=True,
    )
    assert line in tc_auto.splitlines()
    legacy = repro.mine(small_social_graph, workload="mcf", explain=True)
    assert "legacy grower" in legacy
    assert "execution: sim" in legacy
    tc = repro.mine(small_social_graph, workload="tc", explain=True)
    assert "plan 'triangle'" in tc
