"""The six end-to-end workloads: seeded input, one timed iteration, an oracle.

Each workload is a small object the measuring loop (``run.py``) and the
layer probes (``layers.py``) drive through four calls:

* ``prepare(seed)`` builds the input cold from public generators — the
  program under test only ever receives what this returns;
* ``iterate(state)`` is one timed operation through a public entry
  point (``repro.mine``, ``GMinerJob.run`` or
  ``MiningService.run_trace``) and returns the raw answer;
* ``digest(answer)`` reduces the answer to a small comparable record
  (called inside the timed region, so the result is consumed there);
* ``oracle(state)`` recomputes the expected record along an independent
  path, and ``check(digest, expected)`` compares them.

Sizes are fixed here (full and ``--quick``) so every commit measures the
same work; they were chosen so one iteration takes 0.15-0.8 s on the
2-core reference host and a 10 s run holds well over nine of them.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

import repro
from repro import GMinerConfig, GMinerJob, kernels
from repro.baselines import SingleThreadSystem
from repro.bench import DEFAULT_TIME_LIMIT, EXPERIMENT_SPEC, build_app
from repro.bench.runner import BENCH_FOCUS_PARAMS, gc_exemplars
from repro.graph.attributes import AttributeSpace
from repro.graph.datasets import BuiltDataset
from repro.graph.generators import (
    planted_partition_graph,
    preferential_attachment_graph,
    random_attributes,
)
from repro.graph.graph import Graph
from repro.mining.cost import WorkMeter
from repro.mining.triangles import (
    triangle_count_estimate_sequential,
    triangle_count_sequential,
)
from repro.plans import PlanApp, compile_pattern, motif
from repro.plans.api import prepare_job
from repro.plans.executor import count_plan_sequential
from repro.service import (
    MiningService,
    ServiceConfig,
    TrafficConfig,
    generate_trace,
    graph_for,
)

#: The paper-table engine configuration ``repro.bench.run`` uses: the
#: scaled 15-node x 4-core cluster and the 10 simulated-second cutoff.
SIM_CONFIG = GMinerConfig(cluster=EXPERIMENT_SPEC, time_limit=DEFAULT_TIME_LIMIT)

LAYERS_SIM = frozenset({"graph", "partitioning", "kernels", "mining", "core", "sim", "obs"})


def adjacency_of(graph: Graph) -> Dict[int, Tuple[int, ...]]:
    return {v: graph.neighbors(v) for v in graph.vertices()}


def exact_triangles(graph: Graph) -> int:
    """The tc oracle: the single-thread kernel, no engine involved."""
    return triangle_count_sequential(adjacency_of(graph), WorkMeter())


class Workload:
    """Base: the driving surface described in the module docstring."""

    name: str = ""
    why: str = ""
    #: Kernel backend the iteration runs on (the kernel probes use it).
    backend: str = "numpy"
    #: Layers (``src/repro/<layer>``, dotted for a sub-module) one
    #: iteration enters; a layer probe runs only for these, every other
    #: layer metric reads 0.
    layers: FrozenSet[str] = frozenset()
    #: What ``throughput_per_s`` counts per iteration.
    throughput_unit: str = "input edges"
    #: Which part of the input ``--seed`` draws (printed with the results).
    seeded: str = "graph"
    #: Engine configuration of one job (the layer probes read the
    #: cluster shape and cache capacity from it).
    config: GMinerConfig = GMinerConfig()

    def prepare(self, seed: int, quick: bool) -> Any:
        raise NotImplementedError

    def iterate(self, state: Any) -> Any:
        raise NotImplementedError

    def digest(self, answer: Any) -> Any:
        raise NotImplementedError

    def oracle(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, digest: Any, expected: Any) -> bool:
        return digest == expected

    def sequential(self, state: Any) -> Tuple[Any, float]:
        """The workload's mining done single-threaded with no engine, on
        the workload's backend: ``(value, work units)``."""
        raise NotImplementedError

    def graph(self, state: Any) -> Graph:
        """The input graph the layer probes run on."""
        return state

    def work_items(self, state: Any, digest: Any) -> int:
        """Numerator of ``throughput_per_s`` for one iteration."""
        return self.graph(state).num_edges

    def sim_seconds(self, answer: Any) -> float:
        """Simulated seconds of one iteration (0: no simulated clock)."""
        return 0.0

    def job_results(self, answer: Any) -> List[Any]:
        """The ``JobResult`` of every job one iteration completed."""
        return [answer]

    def make_job(self, state: Any) -> Optional[GMinerJob]:
        """The unstarted simulated job ``iterate`` runs, for workloads
        that are one: the traced pass drives its public ``begin()`` /
        ``advance()`` / ``complete()`` phases itself (``run()`` is
        exactly those three calls).  ``None`` otherwise."""
        return None


# ----------------------------------------------------------------------
# simulated engine: one-round tasks / multi-round attributed tasks
# ----------------------------------------------------------------------


class ExactTc(Workload):
    """Shared by the exact triangle-counting workloads."""

    def digest(self, result: Any) -> Any:
        return (result.ok, result.value)

    def oracle(self, graph: Graph) -> Any:
        return (True, exact_triangles(graph))

    def sequential(self, graph: Graph) -> Tuple[Any, float]:
        meter = WorkMeter()
        with kernels.use_backend(self.backend):
            return triangle_count_sequential(adjacency_of(graph), meter), meter.units


class SimTcOrkut(ExactTc):
    name = "sim-tc-orkut"
    why = (
        "one-round tc tasks on an orkut-shaped dense social graph: core+sim "
        "(rcv cache, pulls, event heap) do most of the host time, kernels little"
    )
    layers = LAYERS_SIM | {"verify", "parallel"}
    config = SIM_CONFIG

    def prepare(self, seed: int, quick: bool) -> Graph:
        # the registry's orkut-s recipe with the run's seed, at 60 % of
        # its vertices so an iteration is ~0.7 s instead of ~1.8 s
        return preferential_attachment_graph(
            n=120 if quick else 1200, m=25, triangle_prob=0.6, seed=seed, max_degree=120
        )

    def iterate(self, graph: Graph, config: Optional[GMinerConfig] = None) -> Any:
        return repro.mine(graph, workload="tc", config=config or self.config)

    def make_job(self, graph: Graph) -> GMinerJob:
        return prepare_job(graph, workload="tc", config=self.config)

    def sim_seconds(self, result: Any) -> float:
        return result.total_seconds


class SimGcDblp(Workload):
    name = "sim-gc-dblp"
    why = (
        "multi-round attributed gc growers on a dblp-shaped planted-community "
        "graph: mining is the larger share, same engine used with re-pulls and payloads"
    )
    layers = LAYERS_SIM
    config = SIM_CONFIG
    seeded = "nothing (the registry's seeds 606/607)"

    def prepare(self, seed: int, quick: bool) -> BuiltDataset:
        # the registry's dblp-s recipe and seeds, 16 of its 40
        # communities.  Not drawn from ``seed``: which clusters the
        # growers find decides the cost, and over ten seeds the work
        # units of one job spread by a factor of 2.8.
        space = AttributeSpace(dimensions=4, values_per_dimension=20)
        graph, communities = planted_partition_graph(
            num_communities=4 if quick else 16,
            community_size=25,
            p_in=0.35,
            p_out=0.008,
            seed=606,
        )
        random_attributes(
            graph, space=space, seed=607, community_map=communities, coherence=0.9
        )
        return BuiltDataset(
            name="dblp-shaped", graph=graph, community_map=communities, attribute_space=space
        )

    def graph(self, dataset: BuiltDataset) -> Graph:
        return dataset.graph

    def iterate(self, dataset: BuiltDataset, config: Optional[GMinerConfig] = None) -> Any:
        return self.make_job(dataset, config).run()

    def make_job(self, dataset: BuiltDataset, config: Optional[GMinerConfig] = None) -> GMinerJob:
        return GMinerJob(build_app("gc", dataset), dataset.graph, config or self.config)

    def digest(self, result: Any) -> Any:
        return (result.ok, result.value)

    def sequential(self, dataset: BuiltDataset) -> Tuple[Any, float]:
        single = SingleThreadSystem().run(
            "gc",
            dataset.graph,
            exemplars=gc_exemplars(dataset),
            focus_params=BENCH_FOCUS_PARAMS,
        )
        return single.value, single.stats["work_units"]

    def oracle(self, dataset: BuiltDataset) -> Any:
        return (True, self.sequential(dataset)[0])

    def sim_seconds(self, result: Any) -> float:
        return result.total_seconds


# ----------------------------------------------------------------------
# native engine: pooled kernels / serial plan executor
# ----------------------------------------------------------------------


def native_mine(workload: Any, graph: Graph, config: Optional[GMinerConfig]) -> Any:
    """``repro.mine`` on the native engine; ``config`` lets the pool
    probes change the worker count."""
    return repro.mine(
        graph,
        execution="native",
        backend=workload.backend,
        config=config or workload.config,
        **workload.mine_args,
    )


class NativeTcDense(ExactTc):
    name = "native-tc-dense"
    why = (
        "short pooled native job on a dense graph: bitset intersect_count_many "
        "plus the pool's fixed costs (fork, payload, unpickle, merge); engine bypassed"
    )
    backend = "bitset"
    layers = frozenset({"graph", "kernels", "mining", "native"})
    config = GMinerConfig(native_workers=2)

    def prepare(self, seed: int, quick: bool) -> Graph:
        workers = self.config.native_workers
        if (os.cpu_count() or 1) < workers:
            raise SystemExit(
                f"{self.name}: refusing a {workers}-worker pool on "
                f"{os.cpu_count()} core(s); it would measure oversubscription"
            )
        n, m = (150, 30) if quick else (1200, 120)
        return preferential_attachment_graph(n, m, seed=seed)

    mine_args = {"workload": "tc"}

    def iterate(self, graph: Graph, config: Optional[GMinerConfig] = None) -> Any:
        return native_mine(self, graph, config)


class NativePlanTailed(Workload):
    name = "native-plan-tailed"
    why = (
        "compiled tailed-triangle plan on the native serial path: the plan "
        "executor's per-candidate filter loop dominates, kernels are a few percent"
    )
    backend = "bitset"
    layers = frozenset({"graph", "kernels", "plans", "native"})
    # one worker: the pooled cell does not repeat on a 2-core shared
    # host; the pooled numbers are per-layer metrics instead
    config = GMinerConfig(native_workers=1)
    pattern = "tailed-triangle"
    mine_args = {"pattern": pattern}

    def prepare(self, seed: int, quick: bool) -> Graph:
        # the degree cap keeps the plan's work units within 3 % across
        # seeds (uncapped hubs: 9 %)
        n, m = (60, 8) if quick else (200, 20)
        return preferential_attachment_graph(n, m, seed=seed, max_degree=60)

    def iterate(self, graph: Graph, config: Optional[GMinerConfig] = None) -> Any:
        return native_mine(self, graph, config)

    def digest(self, result: Any) -> Any:
        return (result.ok, result.value, result.stats["work_units"])

    def sequential(self, graph: Graph) -> Tuple[Any, float]:
        meter = WorkMeter()
        with kernels.use_backend(self.backend):
            value = count_plan_sequential(compile_pattern(motif(self.pattern)), graph, meter)
        return value, meter.units

    def oracle(self, graph: Graph) -> Any:
        value, units = self.sequential(graph)
        # the engine also charges the task generator's scan of every vertex
        app = PlanApp(compile_pattern(motif(self.pattern)))
        scan = sum(app.seed_cost(graph.vertex_data(v)) for v in graph.vertices())
        return (True, value, units + scan)


# ----------------------------------------------------------------------
# approximate mining
# ----------------------------------------------------------------------


class SketchTcDense(Workload):
    name = "sketch-tc-dense"
    why = (
        "approximate tc under the sketch backend on a dense graph (sparse ones "
        "degrade to exact): MinwiseSketch merge/estimate dominates the simulated run"
    )
    backend = "sketch"
    layers = LAYERS_SIM | {"kernels.sketch"}
    epsilon = 0.05
    config = GMinerConfig(kernel_backend="sketch", accuracy=(epsilon, 0.95), sketch_seed=0)

    def prepare(self, seed: int, quick: bool) -> Graph:
        # n = 2m keeps the minwise estimator's bias under 2 % on every
        # seed tried (other shapes sit at 3-5 %, too close to epsilon)
        n, m = (80, 40) if quick else (220, 110)
        return preferential_attachment_graph(n, m, seed=seed)

    def iterate(self, graph: Graph, config: Optional[GMinerConfig] = None) -> Any:
        return repro.mine(graph, workload="tc", config=config or self.config)

    def make_job(self, graph: Graph) -> GMinerJob:
        return prepare_job(graph, workload="tc", config=self.config)

    def digest(self, result: Any) -> Any:
        estimate = result.estimate
        return (result.ok, None if estimate is None else estimate.point)

    def oracle(self, graph: Graph) -> Any:
        return (True, exact_triangles(graph))

    def check(self, digest: Any, expected: Any) -> bool:
        ok, point = digest
        exact = expected[1]
        return bool(ok) and point is not None and abs(point - exact) <= self.epsilon * exact

    def sequential(self, graph: Graph) -> Tuple[Any, float]:
        meter = WorkMeter()
        with kernels.use_backend("sketch"), kernels.use_sketch_params(self.config.sketch_params()):
            estimate = triangle_count_estimate_sequential(adjacency_of(graph), meter)
        return estimate.point, meter.units

    def sim_seconds(self, result: Any) -> float:
        return result.total_seconds


# ----------------------------------------------------------------------
# the multi-tenant service
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ServiceState:
    trace: List[Any]
    #: Largest job input of the trace: what the graph-level probes use.
    largest: Graph


class ServiceBurst(Workload):
    name = "service-burst"
    why = (
        "open-loop burst of ~100 tiny sim jobs of all six workloads through admission "
        "and DRR slicing: per-job fixed cost (prepare, cluster build, partition) dominates"
    )
    layers = frozenset({"graph", "partitioning", "core", "sim", "service"})
    throughput_unit = "jobs completed"
    seeded = "nothing (the trace of TrafficConfig seed 23)"
    service_config = ServiceConfig(max_queue_depth=16, max_inflight_per_tenant=10)
    #: The whole trace is the workload's definition and is not drawn
    #: from ``--seed``: re-drawing the tenant/workload mix moves one
    #: replay's cost by +-15 %, and re-drawing only the 16-48-vertex job
    #: graphs still by +-6 % (gc and gl jobs, 70 % of the work, swing
    #: 10-25 % with their graph) -- either would bury a change under
    #: input noise.
    shape = dict(
        seed=23,
        duration=30.0,
        base_rate=1.0,
        bursts=((3.0, 6.0),),
        burst_rate=45.0,
        size_min=16,
        size_max=48,
    )
    oracle_sample = 20

    def prepare(self, seed: int, quick: bool) -> ServiceState:
        trace = generate_trace(TrafficConfig(max_jobs=24 if quick else 90, **self.shape))
        largest = max(trace, key=lambda spec: (spec.size, spec.name))
        return ServiceState(trace=trace, largest=graph_for(largest))

    def graph(self, state: ServiceState) -> Graph:
        return state.largest

    def iterate(
        self,
        state: ServiceState,
        service: Optional[MiningService] = None,
        graph_source: Callable[[Any], Graph] = graph_for,
    ) -> Any:
        """One replay.  The traced pass hands in a service and a graph
        source whose calls it records; the timed loop uses the defaults."""
        service = service or MiningService(self.service_config)
        submitted = service.run_trace(state.trace, graph_source)
        return service, submitted, service.slo_report()

    def digest(self, answer: Any) -> Any:
        service, submitted, report = answer
        values = tuple(
            (spec.name, None if handle is None else repr(service.result(handle).value))
            for spec, handle in submitted
        )
        return (report.makespan, report.jobs_completed, report.jobs_rejected, values)

    def oracle(self, state: ServiceState) -> Any:
        """Standalone ``repro.mine()`` answers of a seeded sample of jobs."""
        rng = random.Random(len(state.trace))
        sample = rng.sample(state.trace, min(self.oracle_sample, len(state.trace)))
        return {
            spec.name: repr(
                repro.mine(graph_for(spec), workload=spec.workload, **spec.options).value
            )
            for spec in sample
        }

    def check(self, digest: Any, expected: Dict[str, str]) -> bool:
        # a refused job has no answer to compare; every sampled job that
        # the service did complete must equal its standalone answer
        served = dict(digest[3])
        return all(served[name] in (None, value) for name, value in expected.items())

    def work_items(self, state: ServiceState, digest: Any) -> int:
        return digest[1]

    def job_results(self, answer: Any) -> List[Any]:
        service, submitted, _ = answer
        return [service.result(handle) for _, handle in submitted if handle is not None]

    def sim_seconds(self, answer: Any) -> float:
        return answer[2].makespan


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        SimTcOrkut(),
        SimGcDblp(),
        NativeTcDense(),
        NativePlanTailed(),
        SketchTcDense(),
        ServiceBurst(),
    )
}
