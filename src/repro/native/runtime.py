"""In-process task execution for the native engine.

Runs G-Miner tasks *for real* against full read-only graph access: no
pulls, no RCV cache, no simulated cluster.  Work accounting reproduces
the simulator's exactly — the task generator charges
``app.seed_cost(vertex)`` for every vertex it scans (whether or not
the vertex seeds a task) and every ``run_round`` call contributes the
units the task charged — so a native run's total work equals the
simulated run's whenever the schedule cannot change per-task charges
(DESIGN.md's sim-vs-native equivalence contract).

Compiled plans and triangle counting skip the task objects: the
``run_seeds`` hooks of :class:`~repro.plans.PlanApp` (a chunk's roots
straight through the plan step runner) and
:class:`~repro.apps.triangle_counting.TriangleCountingApp` (each
admitted seed's kernel call on shared neighbour handles) report the
tasks, rounds, results and charges one task per admitted seed would.
A subclass that overrides ``make_task`` runs the task loop instead
(:func:`chunk_hook`).

Tasks execute *pure*: ``env.aggregated`` stays ``None`` (so MCF's
branch-and-bound bound starts at 0 and never tightens across tasks)
and aggregator offers are collected in seed order and merged by the
parent.  Per-chunk outcomes are therefore a function of the chunk's
vertices alone — independent of worker count, dispatch order and
completion order, which is what makes the engine's bit-identity
guarantees hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import Graph, VertexData
from repro.mining.cost import WorkMeter


@dataclass
class ChunkOutcome:
    """Everything one seed chunk produced, in deterministic seed order.

    ``results`` keeps only non-``None`` task results (the same rule the
    simulated worker applies when recording a dead task), ordered by
    seed vertex then spawn order — a total order that never depends on
    which pool worker executed the chunk or when.
    """

    chunk_id: int
    work_units: float = 0.0
    rounds: int = 0
    tasks_created: int = 0
    results: List[Any] = field(default_factory=list)
    offers: List[Any] = field(default_factory=list)


def make_data_source(graph: Graph) -> Callable[[int], VertexData]:
    """The vertex source tasks read: ``graph.vertex_data``.

    The graph memoises one :class:`VertexData` per vertex, so the
    job backend's ``neighbors_array()`` conversion is paid once per
    vertex and shared by every task, job and forked pool worker — the
    native analogue of the simulator's RCV cache.  Read-only data, so
    sharing cannot change any result or charge.
    """
    return graph.vertex_data


def run_task(
    task: Task, data_of: Callable[[int], VertexData], env: TaskEnv
) -> Tuple[List[Any], float, int, int]:
    """Drive one task (and anything it spawns) to completion.

    Returns ``(results, work_units, rounds, spawned)``.  Each round
    gathers the task's candidate vertices straight from the graph —
    the native equivalent of the simulator's pull/cache path, which by
    construction always delivers exactly the requested vertices — and
    calls the same ``run_round`` the simulated executor calls.
    """
    results: List[Any] = []
    work = 0.0
    rounds = 0
    spawned = 0
    pending = [task]
    while pending:
        current = pending.pop(0)
        while not current.finished:
            cand_objs = {vid: data_of(vid) for vid in current.candidates}
            work += current.run_round(cand_objs, env)
            rounds += 1
            children = current.spawn()
            if children:
                spawned += len(children)
                pending.extend(children)
        if current.result is not None:
            results.append(current.result)
    return results, work, rounds, spawned


def chunk_hook(app: GMinerApp) -> Optional[Callable[..., Any]]:
    """``app.run_seeds`` when the class defining it also defines the
    ``make_task`` in effect, else ``None``.

    The hook stands in for that class's task generator only: a subclass
    overriding ``make_task`` alone (to decline, wrap or fail seeds) must
    keep going through it, so it gets the task loop.
    """
    for klass in type(app).__mro__:
        defined = vars(klass).keys() & {"run_seeds", "make_task"}
        if defined:
            return app.run_seeds if len(defined) == 2 else None
    return None


def execute_chunk(
    app: GMinerApp,
    graph: Graph,
    chunk_id: int,
    vids: Sequence[int],
    data_of: Optional[Callable[[int], VertexData]] = None,
) -> ChunkOutcome:
    """Seed and run every task of one chunk of seed vertices.

    Mirrors the simulated task generator: every vertex is scanned (and
    its ``seed_cost`` charged) even when ``make_task`` declines it.
    ``data_of`` is the vertex source; ``None`` means
    ``graph.vertex_data``.

    An app with a ``run_seeds(vids, data_of, charge) -> (results,
    tasks, rounds)`` hook (:func:`chunk_hook`) runs the whole chunk
    through it instead of one task per seed: full graph access needs no
    pull sets or candidate dicts.  The hook must report what the task
    loop would have.
    """
    outcome = ChunkOutcome(chunk_id=chunk_id)
    if data_of is None:
        data_of = graph.vertex_data
    run_seeds = chunk_hook(app)
    if run_seeds is not None:
        for vid in vids:
            outcome.work_units += app.seed_cost(data_of(vid))
        meter = WorkMeter()
        outcome.results, outcome.tasks_created, outcome.rounds = run_seeds(
            vids, data_of, meter.charge
        )
        outcome.work_units += meter.units
        return outcome
    env = TaskEnv(worker_id=0, aggregated=None, push=outcome.offers.append)
    for vid in vids:
        vertex = data_of(vid)
        outcome.work_units += app.seed_cost(vertex)
        task = app.make_task(vertex)
        if task is None:
            continue
        outcome.tasks_created += 1
        results, work, rounds, spawned = run_task(task, data_of, env)
        outcome.results.extend(results)
        outcome.work_units += work
        outcome.rounds += rounds
        outcome.tasks_created += spawned
    return outcome
