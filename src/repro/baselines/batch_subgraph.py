"""G-thinker-like batch subgraph-centric system (paper §2, §8.2).

Runs the *same* application task objects as G-Miner, but under the
batch processing framework the paper criticises: computation and
communication alternate in globally-barriered phases.

* **Compute phase** — every READY task runs on the worker's cores;
  tasks whose next round needs no remote data continue within the
  phase; tasks needing pulls park until the next comm phase.
* **Comm phase** — all parked pulls are exchanged at once; every
  worker waits at the barrier until the whole cluster's transfers
  complete.

Consequences measured in the paper and reproduced here: CPU sits idle
during comm phases (Figure 5's saw-tooth), every task lives in memory
for the whole job (no disk-backed store — higher memory, Table 4), the
cache is plain FIFO without LSH-ordered locality, and there is no task
stealing.  The aggregator still shares MCF's clique bound (workers see
their local best immediately and the global best at barriers), which
preserves G-thinker's famous superlinear pruning (§3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.baselines.common import make_result
from repro.core.aggregator import AggregatorState
from repro.core.api import GMinerApp
from repro.core.job import JobResult, JobStatus, _merged_meter
from repro.core.rcv_cache import CachePolicy, RCVCache
from repro.core.task import Task, TaskEnv, TaskStatus
from repro.graph.graph import Graph, VertexData
from repro.partitioning import HashPartitioner
from repro.sim.cluster import Cluster, ClusterSpec, build_cluster
from repro.sim.engine import Simulator
from repro.sim.errors import SimulatedOOMError
from repro.sim.metrics import UtilizationTimeline

#: Barrier overhead per phase (global synchronisation cost, seconds).
PHASE_BARRIER_SECONDS = 0.004
#: G-thinker keeps a larger in-memory vertex cache (no disk pipeline to
#: lean on); sized relative to G-Miner's default.
CACHE_CAPACITY_BYTES = 16_000_000


@dataclass
class _BatchWorker:
    """Per-worker state of the batch system."""

    worker_id: int
    vertex_table: Dict[int, VertexData]
    cache: RCVCache
    ready: List[Task] = field(default_factory=list)
    parked: List[Task] = field(default_factory=list)  # waiting for comm phase
    results: Dict[int, Any] = field(default_factory=dict)
    agg: Optional[AggregatorState] = None
    outstanding: int = 0  # task rounds in flight this compute phase


class BatchSubgraphSystem:
    """Barriered batch execution of G-Miner task applications."""

    name = "gthinker"

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        time_limit: Optional[float] = None,
    ) -> None:
        self.spec = spec or ClusterSpec()
        self.time_limit = time_limit
        self.cluster: Optional[Cluster] = None
        self.phases = 0

    # ------------------------------------------------------------------

    def run_app(self, app: GMinerApp, graph: Graph) -> JobResult:
        spec = self.spec
        sim = Simulator()
        cluster = build_cluster(spec, sim)
        self.cluster = cluster
        owner = HashPartitioner().partition(graph, spec.num_nodes).owner_of
        aggregator = app.make_aggregator()

        workers: List[_BatchWorker] = []
        for w in range(spec.num_nodes):
            node = cluster.node(w)
            cache = RCVCache(
                capacity_bytes=CACHE_CAPACITY_BYTES,
                policy=CachePolicy.FIFO,
                on_alloc=lambda n, node=node: node.allocate(n, "batch cache"),
                on_free=lambda n, node=node: node.free(n),
            )
            workers.append(
                _BatchWorker(
                    worker_id=w,
                    vertex_table={},
                    cache=cache,
                    agg=AggregatorState(aggregator) if aggregator else None,
                )
            )
        for v in graph.vertices():
            data = graph.vertex_data(v)
            w = owner(v)
            workers[w].vertex_table[v] = data

        status = JobStatus.OK
        live = {"n": 0}
        try:
            for bw in workers:
                node = cluster.node(bw.worker_id)
                node.allocate(
                    sum(d.estimate_size() for d in bw.vertex_table.values()),
                    "vertex table",
                )
                for vid in sorted(bw.vertex_table):
                    task = app.make_task(bw.vertex_table[vid])
                    if task is None:
                        continue
                    node.allocate(task.estimate_size(), "batch task")
                    live["n"] += 1
                    remote = [
                        v for v in task.to_pull if v not in bw.vertex_table
                    ]
                    task.to_pull = set(remote)
                    if remote:
                        task.status = TaskStatus.INACTIVE
                        bw.parked.append(task)
                    else:
                        task.status = TaskStatus.READY
                        bw.ready.append(task)
            self._run_phases(cluster, workers, owner, aggregator, live)
            sim.run(until=self.time_limit)
            if live["n"] > 0:
                status = JobStatus.TIMEOUT
        except SimulatedOOMError:
            status = JobStatus.OOM

        finish = sim.now
        results: Dict[int, Any] = {}
        for bw in workers:
            results.update(bw.results)
        value = app.combine_results(results.values()) if results else None
        meters = {
            "cpu": _merged_meter([n.cores.meter for n in cluster.nodes], "cpu"),
            "network": _merged_meter(
                [cluster.network.node_meter(n.node_id) for n in cluster.nodes],
                "network",
            ),
            "disk": _merged_meter([n.disk.meter for n in cluster.nodes], "disk"),
        }
        return make_result(
            status=status,
            app_name=app.name,
            value=value,
            total_seconds=finish,
            cpu_utilization=cluster.cpu_utilization(0.0, finish) if finish > 0 else 0.0,
            peak_memory_bytes=cluster.peak_memory_bytes(),
            network_bytes=cluster.network.bytes_counter.total,
            stats={
                "phases": float(self.phases),
                "cache_hits": float(sum(bw.cache.hits for bw in workers)),
                "cache_misses": float(sum(bw.cache.misses for bw in workers)),
            },
            timeline=UtilizationTimeline(meters=meters),
            mining_window=(0.0, finish),
        )

    # ------------------------------------------------------------------

    def _run_phases(self, cluster, workers, owner, aggregator, live) -> None:
        """Drive alternating compute/comm phases until no tasks remain."""
        sim = cluster.sim
        system = self

        def sync_aggregator():
            if aggregator is None:
                return
            partials = [bw.agg.local_partial for bw in workers]
            merged = aggregator.merge_all(partials)
            for bw in workers:
                bw.agg.receive_global(merged)

        def compute_phase():
            system.phases += 1
            barrier = {"n": len(workers)}

            def arrive():
                barrier["n"] -= 1
                if barrier["n"] == 0:
                    sync_aggregator()
                    sim.schedule(PHASE_BARRIER_SECONDS, comm_phase)

            for bw in workers:
                _worker_compute(cluster, bw, owner, live, arrive)

        def comm_phase():
            if live["n"] == 0:
                return  # job complete: no more events scheduled
            system.phases += 1
            barrier = {"n": len(workers)}

            def arrive():
                barrier["n"] -= 1
                if barrier["n"] == 0:
                    sync_aggregator()
                    sim.schedule(PHASE_BARRIER_SECONDS, compute_phase)

            for bw in workers:
                _worker_comm(cluster, bw, workers, owner, arrive)

        compute_phase()


def _worker_compute(cluster, bw: _BatchWorker, owner, live, arrive) -> None:
    """Run all of one worker's ready tasks; tasks continue in-phase when
    their next round needs no pull."""
    node = cluster.node(bw.worker_id)
    tasks, bw.ready = bw.ready, []
    bw.outstanding = 0

    def finish_round(task: Task) -> None:
        if task.finished:
            if task.result is not None:
                bw.results[task.task_id] = task.result
            node.free(task._accounted_size)
            live["n"] -= 1
            return
        remote = [v for v in task.to_pull if v not in bw.vertex_table]
        task.to_pull = set(remote)
        if not remote:
            submit(task)  # continue immediately within the phase
        else:
            task.status = TaskStatus.INACTIVE
            bw.parked.append(task)

    def submit(task: Task) -> None:
        bw.outstanding += 1

        def factory():
            cand_objs: Dict[int, VertexData] = {}
            missing: List[int] = []
            for vid in task.candidates:
                data = bw.vertex_table.get(vid) or bw.cache.peek(vid)
                if data is None:
                    missing.append(vid)
                else:
                    cand_objs[vid] = data
            if missing:
                # evicted since the comm phase: park for a re-pull
                def requeue():
                    task.to_pull = set(missing)
                    task.status = TaskStatus.INACTIVE
                    bw.parked.append(task)
                    done()

                return (1.0, requeue)
            env = TaskEnv(
                worker_id=bw.worker_id,
                aggregated=bw.agg.best_known if bw.agg else None,
                push=bw.agg.offer if bw.agg else None,
            )
            work = task.run_round(cand_objs, env)

            def on_done():
                old = task._accounted_size
                new = task._accounted_size = task.estimate_size()
                if new > old:
                    node.allocate(new - old, "batch task growth")
                else:
                    node.free(old - new)
                finish_round(task)
                done()

            return (work, on_done)

        node.cores.submit_lazy(factory)

    def done() -> None:
        bw.outstanding -= 1
        if bw.outstanding == 0:
            arrive()

    if not tasks:
        arrive()
        return
    for task in tasks:
        task._accounted_size = task.estimate_size()
        submit(task)


def _worker_comm(cluster, bw: _BatchWorker, workers, owner, arrive) -> None:
    """Batch-exchange every parked task's pulls, then mark tasks ready."""
    tasks, bw.parked = bw.parked, []
    needed: Set[int] = set()
    for task in tasks:
        for vid in task.to_pull:
            if bw.cache.lookup(vid) is None:
                needed.add(vid)
    by_owner: Dict[int, List[int]] = {}
    for vid in sorted(needed):
        by_owner.setdefault(owner(vid), []).append(vid)

    pending = {"n": len(by_owner)}

    def complete_if_done():
        if pending["n"] == 0:
            for task in tasks:
                task.status = TaskStatus.READY
                bw.ready.append(task)
            arrive()

    if not by_owner:
        complete_if_done()
        return

    for peer, vids in sorted(by_owner.items()):
        request_bytes = 16 + 8 * len(vids)
        response_payload = [
            workers[peer].vertex_table[v]
            for v in vids
            if v in workers[peer].vertex_table
        ]
        response_bytes = 16 + sum(d.estimate_size() for d in response_payload)

        def deliver(payload=response_payload):
            for data in payload:
                bw.cache.insert(data, refs=0)
            pending["n"] -= 1
            complete_if_done()

        def respond(peer=peer, payload=response_payload, nbytes=response_bytes):
            cluster.network.send(
                peer, bw.worker_id, nbytes, payload, on_delivered=lambda m: deliver()
            )

        cluster.network.send(bw.worker_id, peer, request_bytes, None,
                             on_delivered=lambda m, respond=respond: respond())
