"""Chaos-grade contracts for the supervised native runtime.

The acceptance bar (ISSUE 8 / DESIGN.md §7's fault model):

* under every seeded *survivable* :class:`NativeFaultPlan` schedule —
  worker crashes, hangs past the chunk-lease deadline, transient chunk
  errors, crash storms that empty the pool — the native result is
  **byte-identical** to the fault-free native run (value,
  ``num_results``, every stats entry) for all six workloads and a
  compiled plan;
* *unsurvivable* schedules (a chunk failing past its retry budget)
  fail with a structured :class:`NativeChunkError` carrying the chunk
  id, attempt count and per-attempt errors — never a hang, never an
  orphaned worker process.

Every schedule is seeded and every fault fires at a chunk boundary, so
chunks either produce their full deterministic outcome or nothing: the
bit-identity claim holds by construction, and these tests pin it.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro
from repro.apps import TriangleCountingApp
from repro.core.config import GMinerConfig
from repro.core.job import GMinerJob, JobStatus
from repro.native import NativeChunkError, NativeFaultPlan
from repro.plans import PlanApp, compile_pattern, motif

from .conftest import make_clustered_graph
from .test_native import _app_factories, _comparable_dict

pytestmark = pytest.mark.chaos

#: The pool shape every chaos run uses: small chunks so the test
#: graphs split into ~15 chunks and 4 workers genuinely contend.
POOL = dict(native_workers=4, native_chunk_size=8)

#: Every survivable schedule the acceptance criteria sweep:
#: (name, plan builder).  Each plan is freshly built per test
#: (builders mutate the plan in place) and carries the supervision
#: budgets that make it survivable.
SURVIVABLE = [
    ("crash-first-claim", lambda: NativeFaultPlan(seed=11).crash(0, on_claim=0)),
    ("crash-late", lambda: NativeFaultPlan(seed=12).crash(1, on_claim=1)),
    (
        "double-crash",
        lambda: NativeFaultPlan(seed=13).crash(0, on_claim=0).crash(1, on_claim=1),
    ),
    (
        "hang-until-deadline",
        lambda: NativeFaultPlan(seed=14, chunk_deadline=0.3).hang(0, on_claim=0),
    ),
    (
        "finite-hang",
        lambda: NativeFaultPlan(seed=15).hang(1, on_claim=0, duration=0.05),
    ),
    (
        "flaky-chunks",
        lambda: NativeFaultPlan(seed=16)
        .flaky_chunk(0, failures=2)
        .flaky_chunk(2, failures=1),
    ),
    (
        "random-errors",
        lambda: NativeFaultPlan(seed=17, max_chunk_retries=8).random_chunk_errors(0.25),
    ),
    (
        "crash-storm-serial-fallback",
        lambda: NativeFaultPlan(seed=18, max_respawns=1).crash(on_claim=0),
    ),
    (
        "mixed",
        lambda: NativeFaultPlan(seed=19)
        .crash(0, on_claim=1)
        .flaky_chunk(1, failures=1)
        .slow(1, delay=0.01),
    ),
]
SCHEDULE_IDS = [name for name, _ in SURVIVABLE]
#: The cheap representative subset swept against every workload (the
#: full schedule list runs against tc and the compiled plan).
CORE_SCHEDULES = [
    row for row in SURVIVABLE
    if row[0] in ("crash-first-claim", "flaky-chunks",
                  "crash-storm-serial-fallback")
]


def _run(app_factory, graph, plan=None, **knobs):
    config = GMinerConfig(execution="native", **{**POOL, **knobs})
    return GMinerJob(app_factory(), graph, config, plan).run()


def _assert_bit_identical(app_factory, graph, plan_builder):
    chaotic = _run(app_factory, graph, plan_builder())
    clean = _run(app_factory, graph)
    assert chaotic.status is JobStatus.OK
    # the whole serialised result — value, num_results, every stats
    # entry — must match; only result.native (diagnostics) may differ
    assert _comparable_dict(chaotic) == _comparable_dict(clean)
    return chaotic


# ----------------------------------------------------------------------
# survivable schedules are invisible in the result
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["tc", "mcf", "gm", "gl", "cd", "gc"])
@pytest.mark.parametrize(
    "schedule", CORE_SCHEDULES, ids=[row[0] for row in CORE_SCHEDULES]
)
def test_all_workloads_bit_identical_under_chaos(workload, schedule):
    _, graph, factory = next(
        row for row in _app_factories() if row[0] == workload
    )
    if workload == "gl":
        # graphlet classification is quadratic-ish in the test graph;
        # a smaller instance keeps the chaos sweep fast without losing
        # the multi-chunk pool shape (48 vertices -> 6 chunks)
        graph = make_clustered_graph(n=48)
    _, plan_builder = schedule
    _assert_bit_identical(factory, graph, plan_builder)


@pytest.mark.parametrize("schedule", SURVIVABLE, ids=SCHEDULE_IDS)
def test_every_schedule_bit_identical_on_tc(schedule):
    name, plan_builder = schedule
    graph = make_clustered_graph()
    chaotic = _assert_bit_identical(TriangleCountingApp, graph, plan_builder)
    # the schedule actually fired (diagnostics prove the chaos was real)
    fired = (
        chaotic.native["crashes"] + chaotic.native["hangs"]
        + chaotic.native["chunk_errors"] + chaotic.native["leases_expired"]
    )
    # finite-hang: a survived stall leaves no tally.  crash-late: the
    # crash arms on worker 1's *second* claim, which small hosts (few
    # cores → few live workers → worker 0 claims every remaining chunk)
    # may never reach — the bit-identity assertion above still holds
    # either way, which is the point of the contract.
    if name not in ("finite-hang", "crash-late"):
        assert fired > 0, chaotic.native


@pytest.mark.parametrize("schedule", SURVIVABLE, ids=SCHEDULE_IDS)
def test_compiled_plan_bit_identical_under_chaos(schedule):
    _, plan_builder = schedule
    graph = make_clustered_graph()
    factory = lambda: PlanApp(compile_pattern(motif("tailed-triangle")))
    _assert_bit_identical(factory, graph, plan_builder)


def test_repeated_chaos_runs_identical():
    graph = make_clustered_graph()
    plan = lambda: NativeFaultPlan(seed=23).crash(0, on_claim=0).flaky_chunk(
        3, failures=1
    )
    first = _run(TriangleCountingApp, graph, plan())
    second = _run(TriangleCountingApp, graph, plan())
    assert _comparable_dict(first) == _comparable_dict(second)


def test_mine_accepts_native_fault_plan(small_social_graph):
    plan = NativeFaultPlan(seed=29).flaky_chunk(0, failures=1)
    config = GMinerConfig(
        execution="native", native_workers=2, native_chunk_size=8
    )
    chaotic = repro.mine(
        small_social_graph, workload="tc", config=config, failure_plan=plan
    )
    clean = repro.mine(small_social_graph, workload="tc", config=config)
    assert chaotic.value == clean.value
    assert chaotic.stats == clean.stats
    assert chaotic.native["chunk_errors"] == 1


# ----------------------------------------------------------------------
# degradation ladder: shrink -> respawn -> serial fallback
# ----------------------------------------------------------------------


def test_pool_shrinks_when_respawn_budget_is_zero():
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=31, max_respawns=0).crash(0, on_claim=0)
    chaotic = _run(TriangleCountingApp, graph, plan)
    clean = _run(TriangleCountingApp, graph)
    assert _comparable_dict(chaotic) == _comparable_dict(clean)
    assert chaotic.native["crashes"] == 1
    assert chaotic.native["respawns"] == 0


def test_worker_killed_while_idle_forfeits_its_next_chunk(monkeypatch):
    """A worker killed from outside between chunks (an OOM kill): the
    chunk dispatched to it is forfeited and retried elsewhere."""
    import os
    import signal

    from repro.native.supervisor import Supervisor

    original = Supervisor._dispatch

    def kill_idle_worker_0(self):
        worker = self.workers.get(0)
        if worker is not None and worker.ready and 0 not in self.held and self.outcomes:
            os.kill(worker.proc.pid, signal.SIGKILL)
            worker.proc.join(5.0)
        return original(self)

    monkeypatch.setattr(Supervisor, "_dispatch", kill_idle_worker_0)
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=89).slow(delay=0.01)
    chaotic = _run(TriangleCountingApp, graph, plan, native_workers=2)
    clean = _run(TriangleCountingApp, graph)
    assert _comparable_dict(chaotic) == _comparable_dict(clean)
    assert {k: chaotic.native[k] for k in ("crashes", "retries", "respawns")} == {
        "crashes": 1, "retries": 1, "respawns": 1,
    }
    assert multiprocessing.active_children() == []


def test_crash_storm_degrades_to_serial_fallback():
    graph = make_clustered_graph()
    # every worker, original or respawned, dies at its first pickup:
    # the pool must empty and the serial fallback finish the job
    plan = NativeFaultPlan(seed=37, max_respawns=2).crash(on_claim=0)
    chaotic = _run(TriangleCountingApp, graph, plan)
    clean = _run(TriangleCountingApp, graph)
    assert _comparable_dict(chaotic) == _comparable_dict(clean)
    assert chaotic.native["respawns"] == 2
    assert chaotic.native["crashes"] >= 3
    assert chaotic.native["fallback_chunks"] > 0
    assert multiprocessing.active_children() == []


#: Crash, hang and flaky-chunk schedules whose tallies do not depend on
#: which worker starts first: every worker crashes (or hangs) at its
#: first pickup, so the pool empties and the rest runs in-process.
SPAWN_SCHEDULES = [
    (
        "crash",
        lambda: NativeFaultPlan(seed=73, max_respawns=1).crash(on_claim=0),
        {"crashes": 5, "respawns": 1},
    ),
    (
        "hang",
        lambda: NativeFaultPlan(
            seed=79, chunk_deadline=0.3, max_respawns=0
        ).hang(on_claim=0),
        {"hangs": 4, "leases_expired": 4},
    ),
    (
        "flaky-chunk",
        lambda: NativeFaultPlan(seed=83).flaky_chunk(0, failures=2).flaky_chunk(2),
        {"chunk_errors": 3, "retries": 3, "fallback_chunks": 0},
    ),
]


@pytest.mark.parametrize(
    "schedule", SPAWN_SCHEDULES, ids=[row[0] for row in SPAWN_SCHEDULES]
)
def test_spawn_pool_survives_faults(monkeypatch, schedule):
    """The same supervision under the spawn start method, where each
    worker starts a fresh interpreter and unpickles the graph before it
    reports ready."""
    from repro.native import engine

    monkeypatch.setattr(
        engine, "_pool_context", lambda: multiprocessing.get_context("spawn")
    )
    _, plan_builder, tallies = schedule
    chaotic = _assert_bit_identical(
        TriangleCountingApp, make_clustered_graph(), plan_builder
    )
    assert {key: chaotic.native[key] for key in tallies} == tallies
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# unsurvivable schedules: structured failure, never a hang
# ----------------------------------------------------------------------


def test_poison_chunk_raises_structured_error():
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=41, max_chunk_retries=1).flaky_chunk(
        2, failures=99, message="injected poison"
    )
    with pytest.raises(NativeChunkError) as excinfo:
        _run(TriangleCountingApp, graph, plan)
    error = excinfo.value
    assert [f.chunk_id for f in error.failures] == [2]
    failure = error.failures[0]
    assert failure.attempts == 2  # the original try + 1 retry
    assert len(failure.errors) == 2
    assert all("injected poison" in e for e in failure.errors)
    assert "chunk 2" in str(error)
    # the failed pool was torn down completely
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert multiprocessing.active_children() == []


def test_zero_retry_budget_quarantines_first_failure():
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=43, max_chunk_retries=0).flaky_chunk(0, failures=1)
    with pytest.raises(NativeChunkError) as excinfo:
        _run(TriangleCountingApp, graph, plan)
    assert excinfo.value.failures[0].attempts == 1


def test_real_exception_surfaces_traceback():
    graph = make_clustered_graph()
    poison = sorted(graph.vertices())[0]
    # one worker runs in-process, two in the pool: the same structured
    # error either way, after the default budget's two retries
    for workers in (1, 2):
        with pytest.raises(NativeChunkError) as excinfo:
            _run(
                lambda: _PoisonVertexApp(poison), graph,
                native_workers=workers,
            )
        failure = excinfo.value.failures[0]
        assert failure.chunk_id == 0, workers  # the poison vertex seeds chunk 0
        assert failure.attempts == len(failure.errors) == 3, workers
        for error in failure.errors:
            assert "RuntimeError" in error, workers
            assert "poison vertex" in error, workers
            assert "Traceback" in error, workers


def test_unsurvivable_hang_fails_instead_of_hanging():
    graph = make_clustered_graph()
    # both workers hang on their first pickup, no respawns, no retries:
    # lease expiry must quarantine the held chunks and fail the run
    plan = NativeFaultPlan(
        seed=47, chunk_deadline=0.3, max_chunk_retries=0, max_respawns=0
    ).hang(on_claim=0)
    with pytest.raises(NativeChunkError) as excinfo:
        _run(TriangleCountingApp, graph, plan, native_workers=2)
    assert excinfo.value.failures  # structured, not a stall
    assert all("deadline" in f.errors[0] for f in excinfo.value.failures)
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    assert multiprocessing.active_children() == []


class _PoisonVertexApp(TriangleCountingApp):
    """A tc app whose task generator explodes on one vertex — the
    genuine-exception (not injected) path through chunk retry."""

    def __init__(self, poison_vid: int) -> None:
        self.poison_vid = poison_vid

    def make_task(self, vertex):
        if vertex.vid == self.poison_vid:
            raise RuntimeError(f"poison vertex {vertex.vid}")
        return super().make_task(vertex)


# ----------------------------------------------------------------------
# plan validation and routing
# ----------------------------------------------------------------------


def test_native_fault_plan_requires_native_execution():
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=53).crash(0)
    with pytest.raises(ValueError, match="native"):
        GMinerJob(TriangleCountingApp(), graph, GMinerConfig(), plan)


def test_native_fault_plan_validation():
    with pytest.raises(ValueError, match="worker"):
        NativeFaultPlan().crash(-1).validate()
    with pytest.raises(ValueError, match="on_claim"):
        NativeFaultPlan().crash(0, on_claim=-1).validate()
    with pytest.raises(ValueError, match="duration"):
        NativeFaultPlan().hang(0, duration=0.0).validate()
    with pytest.raises(ValueError, match="delay"):
        NativeFaultPlan().slow(0, delay=-0.5).validate()
    with pytest.raises(ValueError, match="failures"):
        NativeFaultPlan().flaky_chunk(1, failures=0).validate()
    with pytest.raises(ValueError, match="chunk_id"):
        NativeFaultPlan().flaky_chunk(-1).validate()
    with pytest.raises(ValueError, match="rate"):
        NativeFaultPlan().random_chunk_errors(1.5).validate()
    # well-formed plans pass, including never-firing out-of-range ids
    NativeFaultPlan(seed=1).crash(99).hang(5, duration=1.0).slow(
        0, delay=0.1
    ).flaky_chunk(1000).random_chunk_errors(0.5).validate()
    assert NativeFaultPlan().empty
    assert not NativeFaultPlan().crash(0).empty


def test_fault_queries_are_deterministic():
    plan = NativeFaultPlan(seed=61).random_chunk_errors(0.5)
    draws = [plan.chunk_failure(c, a) for c in range(20) for a in range(3)]
    again = [plan.chunk_failure(c, a) for c in range(20) for a in range(3)]
    assert draws == again
    assert any(d is not None for d in draws)
    assert any(d is None for d in draws)
    # crashes shadow hangs on the same claim
    both = NativeFaultPlan().crash(0, on_claim=1).hang(0, on_claim=1)
    assert both.claim_action(0, 1) == ("crash", None)
    assert both.claim_action(0, 0) is None
    assert both.claim_action(1, 1) is None


# ----------------------------------------------------------------------
# observability under chaos
# ----------------------------------------------------------------------


def test_supervision_counters_flow_into_obs():
    graph = make_clustered_graph()
    plan = NativeFaultPlan(seed=67).crash(0, on_claim=0).flaky_chunk(
        1, failures=1
    )
    chaotic = _run(TriangleCountingApp, graph, plan, enable_obs=True)
    counters = chaotic.obs["metrics"]["counters"]
    assert counters["native.crashes"] == 1
    assert counters["native.chunk_errors"] == 1
    assert counters["native.retries"] >= 2
    assert counters["native.respawns"] == 1
    # fault-free pooled runs still surface the counters, as zeros
    clean = _run(TriangleCountingApp, graph, enable_obs=True)
    clean_counters = clean.obs["metrics"]["counters"]
    for key in ("native.crashes", "native.hangs", "native.retries",
                "native.respawns", "native.chunk_errors",
                "native.leases_expired"):
        assert clean_counters[key] == 0.0, key
    assert any(
        span["name"] == "native.supervise" for span in chaotic.obs["spans"]
    )
    assert any(span["name"] == "native.run" for span in chaotic.obs["spans"])
    assert clean_counters["native.fallback_chunks"] == 0.0
    # a crash storm that empties the pool counts its in-process chunks
    storm = _run(
        TriangleCountingApp, graph,
        NativeFaultPlan(seed=71, max_respawns=1).crash(on_claim=0),
        enable_obs=True,
    )
    storm_counters = storm.obs["metrics"]["counters"]
    assert storm_counters["native.fallback_chunks"] == storm.native["fallback_chunks"] > 0
