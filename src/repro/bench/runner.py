"""Uniform experiment runner.

Centralises the scaled experiment defaults (cluster shape, time limit)
and knows how to run every workload on every system so the per-
table/figure experiment functions stay declarative.

The one public entrypoint is :func:`run` — keyword-only, built on
:class:`repro.parallel.RunRequest`, the same unit the parallel engine
ships to pool workers.  :func:`execute_request` is the single place a
cell actually executes, whether called inline, by the ambient
:class:`~repro.parallel.ParallelRunner`, or inside a child process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from repro.baselines import (
    BatchSubgraphSystem,
    EmbeddingExploreSystem,
    SingleThreadSystem,
    VertexCentricSystem,
)
from repro.baselines.common import UnsupportedWorkload
from repro.core import GMinerConfig
from repro.core.api import GMinerApp
from repro.core.job import JobResult
from repro.graph.datasets import DATASETS, BuiltDataset, load_dataset
from repro.mining.clustering import FocusParams
from repro.mining.community import CommunityParams
from repro.parallel import ParallelRunner, RunRequest, USE_DEFAULT
from repro.plans.api import prepare_job
from repro.plans.builtins import builtin_plan
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan

#: The scaled stand-in for the paper's 15-node x 24-core testbed.  Our
#: graphs carry ~10³x fewer tasks, so 4 cores/node keeps the paper's
#: tasks-per-core ratio (and hence the utilisation/queueing dynamics)
#: in a realistic regime.  Experiments that sweep nodes/cores override
#: this.
EXPERIMENT_SPEC = ClusterSpec(num_nodes=15, cores_per_node=4)

#: Stand-in for the paper's 24-hour cutoff, ~10x the slowest successful
#: scaled run.
DEFAULT_TIME_LIMIT = 10.0

#: Systems usable via :func:`run`.
SYSTEMS = ("single-thread", "arabesque", "giraph", "graphx", "gthinker", "gminer")

#: GC parameters for benches; kept small enough that the convergent
#: refinement stays tractable in real time at bench scale.
BENCH_FOCUS_PARAMS = FocusParams(max_size=24, max_iterations=15)

#: CD similarity threshold for datasets whose attributes are the
#: synthetic uniform 5-dimension lists of footnote 7: random lists have
#: low Jaccard similarity, so the natively-attributed threshold would
#: accept nothing.
SYNTHETIC_CD_PARAMS = CommunityParams(tau=0.2)


def prepare_dataset(name: str, app: str) -> BuiltDataset:
    """Load a dataset with whatever decoration the workload needs:
    labels for GM, attribute lists for CD/GC (paper footnote 7)."""
    if app == "gm":
        return load_dataset(name, labeled=True)
    if app in ("cd", "gc"):
        return load_dataset(name, attributed=True)
    return load_dataset(name)


def gc_exemplars(dataset: BuiltDataset, count: int = 5) -> List[int]:
    """Pick GC exemplar vertices: members of one planted community when
    the dataset has ground truth, else the first vertices."""
    if dataset.community_map:
        target = min(dataset.community_map.values())
        members = sorted(
            v for v, c in dataset.community_map.items() if c == target
        )
        return members[:count]
    return sorted(dataset.graph.vertices())[:count]


def bench_options(app: str, dataset: BuiltDataset) -> Dict[str, Any]:
    """The workload options with which the paper tables differ from
    the ``repro.mine()`` defaults — the only such places."""
    if app == "gl":
        return {"k": 3}
    if app == "cd":
        native = DATASETS.get(dataset.name)
        if native is not None and not native.attributed:
            return {"params": SYNTHETIC_CD_PARAMS}
    if app == "gc":
        return {"exemplars": gc_exemplars(dataset), "params": BENCH_FOCUS_PARAMS}
    return {}


def build_app(app: str, dataset: BuiltDataset) -> GMinerApp:
    """Instantiate the G-Miner application for a workload name."""
    return builtin_plan(app).build_app(dataset.graph, **bench_options(app, dataset))


# ----------------------------------------------------------------------
# Cell execution — the one place a (system, workload, dataset, config)
# cell turns into a JobResult.
# ----------------------------------------------------------------------


def _resolve_time_limit(value: Union[float, None, str]) -> Optional[float]:
    return DEFAULT_TIME_LIMIT if value == USE_DEFAULT else value


def _execute_gminer(request: RunRequest) -> JobResult:
    dataset = prepare_dataset(request.dataset, request.workload)
    config = request.config
    if config is None:
        config = GMinerConfig(
            cluster=request.spec or EXPERIMENT_SPEC,
            time_limit=_resolve_time_limit(request.time_limit),
        )
    overrides = request.overrides_dict()
    if overrides:
        config = config.replace(**overrides)
    return prepare_job(
        dataset.graph,
        workload=request.workload,
        config=config,
        failure_plan=request.failure_plan,
        **bench_options(request.workload, dataset),
    ).run()


def execute_request(request: RunRequest) -> Optional[JobResult]:
    """Execute one cell; ``None`` when the system's model cannot
    express the workload (the paper's empty cells)."""
    system = request.system
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; known: {SYSTEMS}")
    if system == "gminer":
        return _execute_gminer(request)
    spec = request.spec or EXPERIMENT_SPEC
    time_limit = _resolve_time_limit(request.time_limit)
    dataset = prepare_dataset(request.dataset, request.workload)
    graph = dataset.graph
    try:
        if system == "single-thread":
            runner = SingleThreadSystem(time_limit=None)
            exemplars = gc_exemplars(dataset) if request.workload == "gc" else ()
            return runner.run(request.workload, graph, exemplars=exemplars)
        if system == "gthinker":
            gminer_app = build_app(request.workload, dataset)
            return BatchSubgraphSystem(spec, time_limit=time_limit).run_app(
                gminer_app, graph
            )
        if system == "arabesque":
            return EmbeddingExploreSystem(spec, time_limit=time_limit).run(
                request.workload, graph
            )
        # giraph / graphx
        return VertexCentricSystem(system, spec, time_limit=time_limit).run(
            request.workload, graph
        )
    except UnsupportedWorkload:
        return None


# ----------------------------------------------------------------------
# The public entrypoint
# ----------------------------------------------------------------------


def run(
    *,
    system: str = "gminer",
    workload: str,
    dataset: str,
    spec: Optional[ClusterSpec] = None,
    config: Optional[GMinerConfig] = None,
    time_limit: Union[float, None, str] = USE_DEFAULT,
    failure_plan: Optional[FailurePlan] = None,
    workers: int = 1,
    **overrides: Any,
) -> Optional[JobResult]:
    """Run one workload on one system with experiment defaults.

    Keyword-only.  ``system`` is any of :data:`SYSTEMS`; ``workload``
    one of ``tc``/``mcf``/``gm``/``gl``/``cd``/``gc``; extra keyword
    arguments override :class:`GMinerConfig` fields (G-Miner runs
    only).  Returns ``None`` when the system's model cannot express the
    workload.  ``workers`` > 1 executes the cell through a
    :class:`~repro.parallel.ParallelRunner` (useful mostly via
    :func:`run_many`, where several cells share the pool).
    """
    request = RunRequest.make(
        workload,
        dataset,
        system,
        spec=spec,
        config=config,
        time_limit=time_limit,
        failure_plan=failure_plan,
        **overrides,
    )
    if workers == 1:
        return execute_request(request)
    return ParallelRunner(workers=workers).map([request])[0]


def run_many(
    requests: Sequence[RunRequest],
    *,
    workers: int = 1,
    cache=None,
) -> List[Optional[JobResult]]:
    """Execute a batch of cells, results in request order.

    ``workers`` > 1 fans the batch out over a process pool; results are
    byte-identical to the serial order either way.
    """
    return ParallelRunner(workers=workers, cache=cache).map(requests)
