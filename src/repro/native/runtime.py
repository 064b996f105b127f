"""In-process task execution for the native engine.

Runs G-Miner tasks *for real* against full read-only graph access: no
pulls, no RCV cache, no simulated cluster.  Work accounting reproduces
the simulator's exactly — the task generator charges
``app.seed_cost(vertex)`` for every vertex it scans (whether or not
the vertex seeds a task) and every ``run_round`` call contributes the
units the task charged — so a native run's total work equals the
simulated run's whenever the schedule cannot change per-task charges
(DESIGN.md's sim-vs-native equivalence contract).

Tasks execute *pure*: ``env.aggregated`` stays ``None`` (so MCF's
branch-and-bound bound starts at 0 and never tightens across tasks)
and aggregator offers are collected in seed order and merged by the
parent.  Per-chunk outcomes are therefore a function of the chunk's
vertices alone — independent of worker count, claim order and
completion order, which is what makes the engine's bit-identity
guarantees hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import Graph, VertexData


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
    """
    outcome = ChunkOutcome(chunk_id=chunk_id)
    env = TaskEnv(worker_id=0, aggregated=None, push=outcome.offers.append)
    if data_of is None:
        data_of = graph.vertex_data
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
