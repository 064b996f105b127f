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
  worker counts and repeated runs, the claim order notwithstanding;
* **refusals and knobs** — failure plans fail fast, config validation
  rejects nonsense, ``backend="auto"`` never changes explicit-backend
  results, ``explain=True`` runs nothing.
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
from repro.graph.graph import VertexData
from repro.graph.generators import random_attributes
from repro.native import run_native, seed_chunks
from repro.plans import PlanApp, compile_pattern, motif
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan
from repro.verify.metamorphic import normalize_value

from .conftest import make_clustered_graph

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
    """Lease-owner accounting: the lease follows the claimer.

    Worker 0 is made a straggler, so whichever worker reaches the flaky
    last chunk on the shared cursor is not known in advance.  A chunk
    that fails on the worker that claimed it is charged exactly one
    attempt and retried exactly once, with the final result
    bit-identical to the fault-free run.
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


def _drain_cursor(next_chunk, num_chunks, holders, leases, wid, claimed):
    from repro.native.supervisor import _claim

    mine = []
    while True:
        chunk_id = _claim(next_chunk, num_chunks, holders, leases, wid)
        if chunk_id is None:
            break
        mine.append(chunk_id)
    claimed.put((wid, mine))


def test_shared_cursor_hands_out_every_chunk_exactly_once():
    """More claimers than cores racing one cursor: a lost update would
    hand a chunk out twice or skip one, and every claimed chunk is
    leased to its claimer."""
    from repro.native.engine import _pool_context

    ctx = _pool_context()
    num_chunks, claimers = 2000, 2 * (os.cpu_count() or 1) + 2
    next_chunk = ctx.Value("l", 0, lock=True)
    holders = ctx.Array("l", [-1] * num_chunks, lock=False)
    leases = ctx.Array("d", [0.0] * num_chunks, lock=False)
    claimed = ctx.Queue()
    procs = [
        ctx.Process(
            target=_drain_cursor,
            args=(next_chunk, num_chunks, holders, leases, wid, claimed),
        )
        for wid in range(claimers)
    ]
    for proc in procs:
        proc.start()
    per_worker = [claimed.get(timeout=60.0) for _ in procs]  # drain, then join
    for proc in procs:
        proc.join(timeout=10.0)
        assert not proc.is_alive()
    assert sorted(c for _, mine in per_worker for c in mine) == list(range(num_chunks))
    assert next_chunk.value == num_chunks
    assert all(holders[c] == wid for wid, mine in per_worker for c in mine)
    assert all(lease > 0.0 for lease in leases)


def test_failed_run_leaves_no_live_children(monkeypatch):
    """Shutdown hygiene: an interrupt mid-run terminates and joins the
    whole pool — no orphan workers, no leaked queue feeder threads."""
    from repro.native.supervisor import Supervisor

    original = Supervisor._dispatch_retries
    calls = {"n": 0}

    def interrupt(self):
        calls["n"] += 1
        if calls["n"] >= 2:  # let the pool actually start first
            raise KeyboardInterrupt
        return original(self)

    monkeypatch.setattr(Supervisor, "_dispatch_retries", interrupt)
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
    graph = make_clustered_graph()
    plan = FailurePlan(seed=5).kill(0, at_time=0.05, recovery_delay=0.02)
    config = GMinerConfig(execution="native", checkpoint_interval=0.05)
    job = GMinerJob(TriangleCountingApp(), graph, config, plan)
    with pytest.raises(ValueError, match="sim"):
        job.run()


def test_config_validation():
    with pytest.raises(ValueError, match="execution"):
        GMinerConfig(execution="gpu")
    with pytest.raises(ValueError, match="native_workers"):
        GMinerConfig(native_workers=0)
    with pytest.raises(ValueError, match="native_chunk_size"):
        GMinerConfig(native_chunk_size=0)


def test_supervision_knobs_validation():
    # the supervision knobs are native-only: setting them on a
    # simulated job fails fast at construction
    with pytest.raises(ValueError, match="native_chunk_deadline"):
        GMinerConfig(native_chunk_deadline=5.0)
    with pytest.raises(ValueError, match="native_max_chunk_retries"):
        GMinerConfig(native_max_chunk_retries=3)
    with pytest.raises(ValueError, match="native_max_respawns"):
        GMinerConfig(native_max_respawns=1)
    # and nonsense values fail even under execution="native"
    with pytest.raises(ValueError, match="native_chunk_deadline"):
        GMinerConfig(execution="native", native_chunk_deadline=0.0)
    with pytest.raises(ValueError, match="native_chunk_deadline"):
        GMinerConfig(execution="native", native_chunk_deadline=float("inf"))
    with pytest.raises(ValueError, match="native_max_chunk_retries"):
        GMinerConfig(execution="native", native_max_chunk_retries=-1)
    with pytest.raises(ValueError, match="native_max_respawns"):
        GMinerConfig(execution="native", native_max_respawns=-1)
    # the happy path constructs (0 is a legal bound for both budgets)
    config = GMinerConfig(
        execution="native",
        native_chunk_deadline=30.0,
        native_max_chunk_retries=0,
        native_max_respawns=0,
    )
    assert config.native_chunk_deadline == 30.0


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
