"""Differential fuzzer: G-Miner vs the sequential oracle vs itself.

``python -m repro.verify.fuzz --iterations 25 --seed 0`` generates
seeded random (graph, workload, cluster-config, failure-plan,
kernel-backend) cases and, for each one:

1. runs the distributed G-Miner job with invariant checking armed and
   the first kernel backend;
2. runs it again with a second kernel backend — results *and* metered
   quantities (simulated makespan, network bytes, per-run stats) must
   match exactly, because backends are value- and work-unit-identical;
3. runs the single-thread baseline kernel as the ground-truth oracle —
   normalised results must agree.

Every further contract is an :class:`Axis` in :data:`AXES`: one check
whose docstring is the contract's only statement (``--help`` prints
it, docs/testing.md tabulates it), armed by the case key / CLI flag
its name spells.  Every leg is built by
:func:`repro.plans.api.prepare_job`, the front door ``repro.mine()``
and the service use, so the fuzzer runs the jobs users run.

Any mismatch (or :class:`~repro.verify.InvariantViolation`) is shrunk
by delta-debugging the vertex set (induced subgraphs) and simplifying
the configuration, then persisted as a replayable JSON repro
(``repro.verify.fuzz/1``).  Replay one with
``python -m repro.verify.fuzz --replay <repro.json>``.

Everything is derived from ``--seed``, so a failing case reproduces
bit-for-bit from its case seed alone — the JSON exists so the *shrunk*
case survives even after the generator changes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import kernels
from repro.baselines.single_thread import SingleThreadSystem
from repro.core.config import GMinerConfig
from repro.core.job import JobStatus
from repro.graph.generators import (
    preferential_attachment_graph,
    random_attributes,
    random_labels,
)
from repro.graph.graph import Graph
from repro.native import NativeChunkError, NativeFaultPlan
from repro.plans import builtin_plan, count_embeddings_bruteforce, mine, motif
from repro.plans.api import prepare_job
from repro.service import MiningService, ServiceConfig
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan
from repro.verify import approx
from repro.verify.invariants import InvariantViolation
from repro.verify.metamorphic import normalize_value

SCHEMA = "repro.verify.fuzz/1"
#: tc dominates (cheapest, sharpest oracle); the rest rotate through.
WORKLOADS = ("tc", "tc", "mcf", "gm", "cd", "gc")
LABEL_ALPHABET = ("a", "b", "c", "d", "e")
#: Simulated seconds after which a simulated leg is cut off and
#: reported as "did not complete: timeout", so a livelocked run is a
#: shrinkable mismatch instead of a hung job.  The slowest leg over the
#: six CI command lines takes 0.69 simulated seconds (cd, case seed
#: 1000003); a livelocked one costs ~1.5 host seconds per simulated.
SIM_TIME_CAP = 10.0


# ----------------------------------------------------------------------
# case generation and (de)serialisation
# ----------------------------------------------------------------------


def second_backend() -> str:
    """The backend to differentiate against "reference"."""
    return "numpy" if "numpy" in kernels.available_backends() else "bitset"


def generate_case(seed: int) -> Dict[str, Any]:
    """One seeded random (graph, workload, config, plan, backends) tuple."""
    rng = random.Random(seed)
    workload = rng.choice(WORKLOADS)
    n = rng.randrange(16, 96)
    graph = preferential_attachment_graph(
        n=n,
        m=rng.randrange(2, 6),
        triangle_prob=rng.uniform(0.3, 0.8),
        seed=rng.randrange(1 << 30),
    )
    labels: Dict[int, str] = {}
    attrs: Dict[int, List[int]] = {}
    if workload == "gm":
        random_labels(graph, alphabet=LABEL_ALPHABET, seed=rng.randrange(1 << 30))
        labels = {v: graph.label(v) for v in graph.vertices()}
    if workload in ("cd", "gc"):
        random_attributes(graph, seed=rng.randrange(1 << 30))
        attrs = {v: list(graph.attributes(v)) for v in graph.vertices()}
    config: Dict[str, Any] = {
        "partitioner": rng.choice(["bdg", "hash"]),
        "cache_policy": rng.choice(["rcv", "rcv", "lru", "fifo"]),
        "enable_lsh": rng.random() < 0.8,
        "enable_stealing": rng.random() < 0.8,
    }
    if rng.random() < 0.3:
        config["cache_capacity_bytes"] = rng.choice([2048, 8192])
    if rng.random() < 0.3:
        config["store_block_tasks"] = rng.choice([2, 8])
        config["task_buffer_batch"] = 2
    plan: Optional[Dict[str, Any]] = None
    num_nodes = rng.randrange(2, 5)
    if rng.random() < 0.3:
        config["checkpoint_interval"] = 0.02
        plan = {"seed": rng.randrange(1 << 30), "kills": [], "lossy": []}
        if rng.random() < 0.7:
            plan["kills"].append(
                [rng.randrange(num_nodes), rng.uniform(0.01, 0.08), 0.02]
            )
        if rng.random() < 0.5:
            plan["lossy"].append([rng.uniform(0.02, 0.15), 0.0, 0.2])
    return {
        "schema": SCHEMA,
        "seed": seed,
        "workload": workload,
        "vertices": sorted(graph.vertices()),
        "edges": [
            [u, v] for u in sorted(graph.vertices())
            for v in graph.neighbors(u) if u < v
        ],
        "labels": {str(k): v for k, v in labels.items()},
        "attributes": {str(k): v for k, v in attrs.items()},
        "num_nodes": num_nodes,
        "cores_per_node": rng.choice([1, 2, 4]),
        "config": config,
        "failure_plan": plan,
        "backends": ["reference", second_backend()],
    }


def graph_from_case(case: Dict[str, Any]) -> Graph:
    graph = Graph.from_edges(
        [tuple(e) for e in case["edges"]], vertices=case["vertices"]
    )
    if case.get("labels"):
        graph.set_labels({int(k): v for k, v in case["labels"].items()})
    if case.get("attributes"):
        graph.set_all_attributes(
            {int(k): tuple(v) for k, v in case["attributes"].items()}
        )
    return graph


def plan_from_case(case: Dict[str, Any]) -> Optional[FailurePlan]:
    spec = case.get("failure_plan")
    if spec is None:
        return None
    plan = FailurePlan(seed=spec["seed"])
    for node_id, at_time, recovery in spec["kills"]:
        plan.kill(node_id, at_time, recovery_delay=recovery)
    for rate, start, end in spec["lossy"]:
        plan.lossy(rate, start=start, end=end)
    return plan


# ----------------------------------------------------------------------
# the legs: every job the fuzzer runs is built here, by prepare_job
# ----------------------------------------------------------------------


def _job(case: Dict[str, Any], pattern, config: GMinerConfig, failure_plan):
    """The case's workload — or, given ``pattern``, that compiled query
    — on the case's graph, through the one public front door."""
    return prepare_job(
        graph_from_case(case),
        pattern=pattern,
        workload=case["workload"] if pattern is None else None,
        config=config,
        failure_plan=failure_plan,
    )


def sim_config(case: Dict[str, Any], backend: str, **config: Any) -> GMinerConfig:
    """The case's simulated-cluster config under ``backend``: invariant
    checking armed, :data:`SIM_TIME_CAP` applied, then the case's own
    knobs, then ``config``."""
    return GMinerConfig(
        cluster=ClusterSpec(
            num_nodes=case["num_nodes"], cores_per_node=case["cores_per_node"]
        ),
        verify=True,
        kernel_backend=backend,
        **{"time_limit": SIM_TIME_CAP, **case["config"], **config},
    )


def run_sim(case: Dict[str, Any], backend: str, *, pattern=None, **config: Any):
    """One simulated G-Miner run under the case's failure plan."""
    job = _job(case, pattern, sim_config(case, backend, **config), plan_from_case(case))
    return job.run()


def run_native(
    case: Dict[str, Any],
    backend: str,
    workers: int,
    *,
    pattern=None,
    failure_plan: Optional[NativeFaultPlan] = None,
):
    """One native-engine run."""
    # chunk_size 16 so even the fuzzer's small graphs split into
    # enough chunks that workers=2 genuinely exercises the pool
    native = GMinerConfig(
        execution="native",
        native_workers=workers,
        native_chunk_size=16,
        kernel_backend=backend,
    )
    return _job(case, pattern, native, failure_plan).run()


def run_oracle(case: Dict[str, Any]):
    """The single-thread ground truth for this case's workload."""
    graph = graph_from_case(case)
    return SingleThreadSystem().run(
        case["workload"],
        graph,
        # the focus prepare_job gives gc when told nothing else
        exemplars=sorted(graph.vertices())[:3],
    )


# ----------------------------------------------------------------------
# the comparisons
# ----------------------------------------------------------------------


class LegFailed(Exception):
    """A leg that did not produce a comparable result; ``str()`` is the
    mismatch line."""


def completed(tag: str, thunk: Callable[[], Any]):
    """``thunk()``'s result, or :class:`LegFailed` when the run trips
    an invariant or ends in any status but OK (a livelocked leg ends
    in ``timeout`` at :data:`SIM_TIME_CAP`)."""
    try:
        result = thunk()
    except InvariantViolation as violation:
        raise LegFailed(f"{tag}: invariant violation: {violation}") from None
    if result.status is not JobStatus.OK:
        raise LegFailed(f"{tag} did not complete: {result.status.value}")
    return result


def diverged(what: str, a, b) -> List[str]:
    """``[]`` when two results share a full fingerprint, else one
    mismatch line: ``what`` (which says who diverged from whom) and
    the differing entries.

    Backends are value- and work-unit-identical, so the fingerprint is
    the entire simulated timeline — not just the answer.
    """
    fp_a, fp_b = (
        {
            "status": result.status.value,
            "value": result.value,
            "num_results": result.num_results,
            "total_seconds": result.total_seconds,
            "network_bytes": result.network_bytes,
            "stats": dict(sorted(result.stats.items())),
        }
        for result in (a, b)
    )
    diff = {key: (fp_a[key], fp_b[key]) for key in fp_a if fp_a[key] != fp_b[key]}
    return [f"{what}: {diff!r}"] if diff else []


def check_case(case: Dict[str, Any], axes: Optional[Sequence[str]] = None) -> List[str]:
    """Run the differential triad, then every armed axis; return
    mismatch descriptions.

    ``axes`` names the :data:`AXES` entries to arm; ``None`` (the
    default) arms those whose name is a true key of the case itself,
    so persisted repros replay — and shrink — with their axes armed.
    """
    workload = case["workload"]
    backend_a, backend_b = case["backends"]
    try:
        result_a, result_b = [
            completed(f"distributed run under {b}", lambda: run_sim(case, b))
            for b in (backend_a, backend_b)
        ]
    except LegFailed as failed:
        return [str(failed)]
    mismatches = diverged(
        f"backends {backend_a} vs {backend_b} diverged", result_a, result_b
    )
    expected = normalize_value(workload, run_oracle(case).value)
    observed = normalize_value(workload, result_a.value)
    if observed != expected:
        mismatches.append(
            f"G-Miner vs single-thread oracle on {workload}: "
            f"observed {observed!r}, expected {expected!r}"
        )
    for axis in AXES:
        if axis.name in axes if axes is not None else case.get(axis.name):
            mismatches.extend(axis.check(case, result_a.value))
    return mismatches


# ----------------------------------------------------------------------
# the axes: check(case, exact_value) -> mismatch lines, where
# exact_value is the triad's backend_a answer
# ----------------------------------------------------------------------


def check_plan_axis(case: Dict[str, Any], exact_value: Any) -> List[str]:
    """Differential-test the pattern plan compiler: the tailed-triangle
    motif — and the workload's pattern-vocabulary equivalent when it
    has one (tc, gm) — is compiled and run distributed under both
    kernel backends with the case's config and failure plan; the runs
    must agree with each other on the full fingerprint, with the
    brute-force embedding oracle on the value, and with the legacy
    grower's result where one exists."""
    mismatches: List[str] = []
    backend_a, backend_b = case["backends"]
    graph = graph_from_case(case)
    equivalent = builtin_plan(case["workload"]).query()
    for query in filter(None, (motif("tailed-triangle"), equivalent)):
        tag = f"plan axis [{query.name}]"
        try:
            plan_a = completed(tag, lambda: run_sim(case, backend_a, pattern=query))
            plan_b = completed(tag, lambda: run_sim(case, backend_b, pattern=query))
        except LegFailed as failed:
            mismatches.append(str(failed))
            continue
        mismatches += diverged(
            f"{tag}: backends {backend_a} vs {backend_b} diverged", plan_a, plan_b
        )
        # a job with zero task results reports value None (the job-level
        # convention shared with the legacy apps); as a count that is 0
        plan_value = plan_a.value if plan_a.value is not None else 0
        expected = count_embeddings_bruteforce(query, graph)
        if plan_value != expected:
            mismatches.append(
                f"{tag}: compiled plan counted "
                f"{plan_value!r}, brute-force oracle says {expected!r}"
            )
        legacy_count = exact_value if exact_value is not None else 0
        if query is equivalent and plan_value != legacy_count:
            mismatches.append(
                f"{tag}: compiled plan counted "
                f"{plan_value!r}, legacy grower counted {legacy_count!r}"
            )
    return mismatches


def fault_free_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """The case with its chaos schedule stripped.

    Native execution refuses failure plans (by design), so the
    simulated leg of the sim-vs-native comparison must run fault-free
    too — recovered runs re-execute tasks and over-count work.
    """
    config = {k: v for k, v in case["config"].items() if k != "checkpoint_interval"}
    return dict(case, failure_plan=None, config=config)


def native_vs_sim(axis: str, pure: Dict[str, Any], native, pattern=None) -> List[str]:
    """Run ``pure``'s simulated leg — its workload, or the compiled
    ``pattern`` — and hold ``native`` to the equivalence contract
    against it: the comparison both native axes share.

    A compiled plan is schedule-independent by construction; mcf is
    the one schedule-*dependent* workload — its branch-and-bound
    pruning feeds on the evolving global bound, so only the answer and
    the aggregated bound are required to agree.
    """
    workload = pure["workload"] if pattern is None else None
    tag = f"{axis} [{workload or 'plan:' + pattern.name}]"
    try:
        sim = completed(
            f"{tag}: sim leg",
            lambda: run_sim(pure, pure["backends"][0], pattern=pattern),
        )
    except LegFailed as failed:
        return [str(failed)]
    norm = (lambda v: normalize_value(workload, v)) if workload else (lambda v: v)
    pairs = [
        ("value", norm(sim.value), norm(native.value)),
        ("aggregated", sim.aggregated, native.aggregated),
    ]
    if workload != "mcf":
        pairs.append(("num_results", sim.num_results, native.num_results))
        counters = ["tasks_created"]
        # each simulated cache re-pull charges one extra work unit the
        # native engine (full graph access, no cache) can never incur
        if sim.stats.get("re_pulls", 0) == 0:
            counters.append("work_units")
        pairs.extend((c, sim.stats.get(c), native.stats.get(c)) for c in counters)
    return [
        f"{tag}: sim {name} {in_sim!r} != native {name} {in_native!r}"
        for name, in_sim, in_native in pairs
        if in_sim != in_native
    ]


def check_native_axis(case: Dict[str, Any], exact_value: Any) -> List[str]:
    """Differential-test the native multiprocess engine on the case's
    fault-free twin (native mode refuses chaos schedules): worker
    counts 1 and 2 — under different kernel backends — must agree on
    the full result fingerprint, and the native run must match the
    simulated one per DESIGN.md's equivalence contract (value and
    aggregated always; raw value, num_results, tasks_created for every
    schedule-independent workload; work_units additionally when the
    simulated cache never re-pulled; mcf on answer and aggregated
    bound only).  A compiled tailed-triangle plan rides the same
    native-vs-sim check."""
    pure = fault_free_case(case)
    backend_a, backend_b = case["backends"]
    native_1 = run_native(pure, backend_a, 1)
    native_2 = run_native(pure, backend_b, 2)
    mismatches = diverged(
        f"native axis: workers=1/{backend_a} vs workers=2/{backend_b} diverged",
        native_1,
        native_2,
    )
    mismatches.extend(native_vs_sim("native axis", pure, native_1))
    # the plan leg runs under the case's cluster shape but default
    # cache knobs: pathologically tight capacities make the simulated
    # cache thrash for minutes on multi-round plans (a simulator
    # performance cliff, not a correctness axis worth fuzzing here)
    roomy = dict(pure, config={})
    query = motif("tailed-triangle")
    plan_native = run_native(roomy, backend_a, 2, pattern=query)
    return mismatches + native_vs_sim("native axis", roomy, plan_native, pattern=query)


def chaos_plan_for_case(case: Dict[str, Any]) -> NativeFaultPlan:
    """A seeded, *guaranteed-survivable* fault schedule for this case.

    Derived deterministically from the case seed so replays inject the
    identical chaos.  Survivability is by construction, against the
    budgets the plan itself carries: crash/hang specs target only the
    two original worker ids (at most two deaths, covered by
    ``max_respawns=2``), injected flaky failures (at most two per
    chunk) stay within ``max_chunk_retries=10``, which also leaves the
    low random error rate's deterministic per-(chunk, attempt) draws no
    realistic way to exhaust it, and the half-second ``chunk_deadline``
    resolves an until-terminated hang in fuzz time.
    """
    rng = random.Random(case["seed"] * 7_919 + 5)
    plan = NativeFaultPlan(
        seed=case["seed"],
        chunk_deadline=0.5,
        max_chunk_retries=10,
        max_respawns=2,
    )
    if rng.random() < 0.6:
        plan.crash(rng.randrange(2), on_claim=rng.randrange(2))
    if rng.random() < 0.3:
        plan.hang(rng.randrange(2), on_claim=rng.randrange(2))  # until deadline
    elif rng.random() < 0.3:
        plan.hang(rng.randrange(2), on_claim=rng.randrange(2), duration=0.03)
    if rng.random() < 0.6:
        plan.flaky_chunk(rng.randrange(4), failures=rng.randrange(1, 3))
    if rng.random() < 0.3:
        plan.random_chunk_errors(0.15)
    if rng.random() < 0.3:
        plan.slow(rng.randrange(2), delay=0.01)
    if plan.empty:
        plan.crash(0, on_claim=0)
    return plan


def check_native_chaos_axis(case: Dict[str, Any], exact_value: Any) -> List[str]:
    """Run the native engine under a seeded survivable NativeFaultPlan
    (worker crashes, hangs, stragglers, transient chunk errors —
    derived from the case seed, bounded so the supervisor's retry and
    respawn budgets always cover it): the chaotic run must match the
    fault-free native run on the full fingerprint (value, num_results,
    every stats entry — the determinism-under-crashes contract) and on
    the aggregated value, must never raise or hang, and the fault-free
    native leg must match the simulator per the equivalence contract
    so the whole triangle closes."""
    pure = fault_free_case(case)
    backend_a, _ = case["backends"]
    clean = run_native(pure, backend_a, 2)
    try:
        chaotic = run_native(
            pure,
            backend_a,
            2,
            failure_plan=chaos_plan_for_case(pure),
        )
    except NativeChunkError as error:
        return [
            f"native chaos axis: survivable schedule was not survived: {error}"
        ]
    mismatches = diverged(
        "native chaos axis: chaotic run diverged from fault-free native run",
        clean,
        chaotic,
    )
    if clean.aggregated != chaotic.aggregated:
        mismatches.append(
            f"native chaos axis: aggregated {clean.aggregated!r} != "
            f"{chaotic.aggregated!r} under faults"
        )
    return mismatches + native_vs_sim("native chaos axis", pure, clean)


def check_service_axis(case: Dict[str, Any], exact_value: Any) -> List[str]:
    """Submit each case through a MiningService: three copies of the
    case's job under case-seeded tenants and priority classes — with a
    small slice and quantum so the deficit-round-robin scheduler
    genuinely interleaves them — plus the same job standalone via
    repro.mine().  Every service result must match the standalone run
    on the full fingerprint (value, num_results, the entire simulated
    timeline: slicing a job's simulator must be invisible to its
    result), and two same-seed service epochs must produce
    byte-identical schedule logs."""
    graph = graph_from_case(case)
    # the same arguments on both paths; a failure plan is per-job state
    job = dict(workload=case["workload"], config=sim_config(case, case["backends"][0]))
    rng = random.Random(case["seed"] * 9_176 + 11)
    submissions = [
        (rng.choice(["gold", "silver"]), rng.choice(["high", "normal", "low"]))
        for _ in range(3)
    ]

    def run_epoch():
        service = MiningService(
            ServiceConfig(
                slice_seconds=0.02,
                quantum_work_units=20.0,
                tenant_weights={"gold": 2.0},
            )
        )
        handles = [
            service.submit(
                graph,
                **job,
                failure_plan=plan_from_case(case),
                tenant=tenant,
                priority=priority,
                name=f"svc-{i}",
            )
            for i, (tenant, priority) in enumerate(submissions)
        ]
        service.run_until_idle()
        return service, handles

    try:
        service, handles = run_epoch()
        results = [service.result(h) for h in handles]
    except Exception as error:  # InvariantViolation included
        return [f"service axis: epoch raised {type(error).__name__}: {error}"]
    solo = mine(graph, **job, failure_plan=plan_from_case(case))
    mismatches: List[str] = []
    for handle, result in zip(handles, results):
        mismatches.extend(
            diverged(
                f"service axis [{handle.name}]: service result diverged "
                "from standalone mine()",
                result,
                solo,
            )
        )
    replay_service, _ = run_epoch()
    if replay_service.schedule_log != service.schedule_log:
        mismatches.append(
            "service axis: same-seed epochs produced different schedule "
            f"logs ({len(service.schedule_log)} vs "
            f"{len(replay_service.schedule_log)} entries)"
        )
    return mismatches


def sketch_settings_for_case(case: Dict[str, Any]) -> tuple:
    """The case's seeded ``((epsilon, confidence), sketch_seed)``.

    Derived deterministically from the case seed (so shrunk and
    replayed cases exercise the identical sketches); a persisted repro
    may pin either via explicit ``"accuracy"``/``"sketch_seed"`` keys.
    """
    rng = random.Random(case["seed"] * 6_271 + 13)
    drawn_accuracy = rng.choice([(0.1, 0.9), (0.05, 0.95)])
    drawn_seed = rng.randrange(1 << 16)
    accuracy = case.get("accuracy")
    if accuracy is None:
        accuracy = drawn_accuracy
    sketch_seed = case.get("sketch_seed")
    if sketch_seed is None:
        sketch_seed = drawn_seed
    return (float(accuracy[0]), float(accuracy[1])), int(sketch_seed)


def check_sketch_axis(case: Dict[str, Any], exact_value: Any) -> List[str]:
    """Run estimate-capable cases (tc, cd, gc) under the probabilistic
    sketch kernel backend with a case-seeded accuracy knob and sketch
    seed: a tc estimate must fall within the error bound the run itself
    stated (its confidence interval and epsilon, widened by a
    deterministic slack — see repro.verify.approx) and JobResult.value
    must be the rounded estimate point; cd and gc must match the exact
    run outright (their attribute lists are shorter than any sketch's
    capacity, so the threshold decisions are provably exact); two
    same-sketch-seed runs must agree on the full fingerprint
    (bit-reproducibility).  Exact-only workloads instead assert that
    the prepare_job gate rejects backend="sketch"."""
    workload = case["workload"]
    accuracy, sketch_seed = sketch_settings_for_case(case)
    if workload not in approx.SKETCH_CAPABLE_WORKLOADS:
        try:
            prepare_job(graph_from_case(case), workload=workload, backend="sketch")
        except ValueError:
            return []
        return [
            f"sketch axis: exact-only workload {workload!r} was not "
            "rejected by prepare_job(backend='sketch')"
        ]

    def sketch_run():
        return run_sim(case, "sketch", accuracy=accuracy, sketch_seed=sketch_seed)

    try:
        result = completed("sketch axis: sketch run", sketch_run)
        replayed = completed("sketch axis: same-seed rerun", sketch_run)
    except LegFailed as failed:
        return [str(failed)]
    mismatches = diverged(
        "sketch axis: same-sketch-seed runs diverged (determinism contract)",
        result,
        replayed,
    )
    if workload == "tc":
        exact = exact_value if exact_value is not None else 0
        if result.estimate is None and not result.value and not exact:
            return mismatches  # degenerate zero-task case; nothing to bound
        mismatches.extend(
            approx.check_estimate(
                f"sketch axis [tc eps={accuracy[0]} seed={sketch_seed}]",
                exact,
                result,
            )
        )
    else:
        expected = normalize_value(workload, exact_value)
        observed = normalize_value(workload, result.value)
        if observed != expected:
            mismatches.append(
                f"sketch axis [{workload}]: threshold-certified workload "
                f"diverged from the exact run: observed {observed!r}, "
                f"expected {expected!r}"
            )
    return mismatches


@dataclass(frozen=True)
class Axis:
    """One differential contract beyond the triad.

    ``name`` is the case key that arms the axis in a persisted repro
    and, with ``_`` as ``-``, its CLI flag; ``check(case, exact_value)``
    returns mismatch lines and its docstring is the ``--help`` text.
    """

    name: str
    check: Callable[[Dict[str, Any], Any], List[str]]


AXES = (
    Axis("plan_axis", check_plan_axis),
    Axis("native_axis", check_native_axis),
    Axis("native_chaos", check_native_chaos_axis),
    Axis("service_axis", check_service_axis),
    Axis("sketch_axis", check_sketch_axis),
)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------


def _induced_case(case: Dict[str, Any], keep: Sequence[int]) -> Dict[str, Any]:
    """The case restricted to the induced subgraph on ``keep``."""
    kept = set(keep)
    sub = dict(case)
    sub["vertices"] = sorted(kept)
    sub["edges"] = [e for e in case["edges"] if e[0] in kept and e[1] in kept]
    sub["labels"] = {k: v for k, v in case["labels"].items() if int(k) in kept}
    sub["attributes"] = {
        k: v for k, v in case["attributes"].items() if int(k) in kept
    }
    return sub


def shrink_case(case: Dict[str, Any], max_checks: int = 400) -> Dict[str, Any]:
    """Delta-debug a failing case to a (locally) minimal one.

    Removes vertex chunks of halving size while the case still fails,
    then tries dropping the failure plan and resetting config knobs.
    ``max_checks`` bounds the total number of re-executions.
    """
    budget = {"n": max_checks}

    def still_fails(candidate: Dict[str, Any]) -> bool:
        if budget["n"] <= 0:
            return False
        budget["n"] -= 1
        try:
            return bool(check_case(candidate))
        except Exception:
            # a shrunk case that crashes outright is still a failure
            return True

    best = case
    chunk = max(len(best["vertices"]) // 2, 1)
    while chunk >= 1:
        index = 0
        while index < len(best["vertices"]):
            vids = best["vertices"]
            candidate = _induced_case(best, vids[:index] + vids[index + chunk:])
            # an edgeless graph degenerates every workload; stop there
            if candidate["edges"] and still_fails(candidate):
                best = candidate
            else:
                index += chunk
        chunk //= 2
    if best.get("failure_plan") is not None:
        candidate = fault_free_case(best)
        if still_fails(candidate):
            best = candidate
    for knob in sorted(best["config"]):
        candidate = dict(best)
        candidate["config"] = {
            k: v for k, v in best["config"].items() if k != knob
        }
        if still_fails(candidate):
            best = candidate
    return best


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def save_repro(
    case: Dict[str, Any], mismatches: List[str], out_dir: str
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fuzz-repro-{case['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {**case, "mismatches": mismatches}, fh, indent=2, sort_keys=True
        )
    return path


def replay(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        case = json.load(fh)
    if case.get("schema") != SCHEMA:
        print(f"not a {SCHEMA} repro: {path}", file=sys.stderr)
        return 2
    mismatches = check_case(case)
    if mismatches:
        print(f"repro still fails ({len(mismatches)} mismatch(es)):")
        for mismatch in mismatches:
            print(f"  - {mismatch}")
        return 1
    print("repro passes: the underlying bug appears fixed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--iterations", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="fuzz-repros", help="directory for shrunk repro JSON"
    )
    parser.add_argument(
        "--replay", metavar="REPRO_JSON", help="re-run one persisted repro"
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report mismatches without delta-debugging them",
    )
    for axis in AXES:
        parser.add_argument(
            "--" + axis.name.replace("_", "-"),
            action="store_true",
            help="also: " + " ".join(axis.check.__doc__.split()),
        )
    args = parser.parse_args(argv)
    if args.replay:
        return replay(args.replay)

    failures = 0
    for iteration in range(args.iterations):
        case_seed = args.seed * 1_000_003 + iteration
        case = generate_case(case_seed)
        for axis in AXES:
            if getattr(args, axis.name):
                # recorded on the case itself so the shrinker's dict
                # copies and --replay keep the axis armed
                case[axis.name] = True
        mismatches = check_case(case)
        tag = (
            f"[{iteration + 1}/{args.iterations}] seed={case_seed} "
            f"{case['workload']} n={len(case['vertices'])}"
        )
        if not mismatches:
            print(f"{tag}: ok")
            continue
        failures += 1
        print(f"{tag}: MISMATCH")
        for mismatch in mismatches:
            print(f"  - {mismatch.splitlines()[0]}")
        if not args.no_shrink:
            case = shrink_case(case)
            mismatches = check_case(case) or mismatches
            print(f"  shrunk to {len(case['vertices'])} vertices")
        path = save_repro(case, mismatches, args.out)
        print(f"  repro written to {path}")
    print(
        f"{args.iterations} case(s), {failures} failure(s)"
        + (f"; repros in {args.out}/" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
