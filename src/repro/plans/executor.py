"""The generic plan-driven grower: executes any
:class:`~repro.plans.compiler.ExecutionPlan` on G-Miner's task model.

Under the simulator one :class:`PlanTask` seeds per admissible vertex;
round ``r`` hands its partial embeddings and plan step ``r-1`` to
:func:`run_step`, the one step runner.  With full graph access — the
native engine's chunks (:meth:`PlanApp.run_seeds`) and
:func:`count_plan_sequential` — :func:`run_roots` calls it per root
with no task, pull set or candidate dict.  The step runner uses:

* **Shared candidate sets** (Khuzdul's extend/intersect split).  A
  partial's candidates — the adjacency lists of its source images
  intersected smallest-first (the input-aware direction), then
  ``slice_gt`` at the lower order bound — depend only on those images
  and the bound, so one step call computes them once per distinct key
  and every partial sharing the key reuses them.  ``slice_lt`` at the
  upper bound and the label / predicate filters likewise run once per
  shared set, not once per (partial, candidate).
* **Arithmetic count fusion** (G²Miner).  A final step that reads no
  vertex data counts ``|cands| − |cands ∩ partial|``: no per-candidate
  loop, nothing materialised, the last level never even pulled.  Which
  images of the partial lie in ``cands`` is mostly static: positions
  pattern-adjacent to every source (``CompiledStep.certain``) are
  *certainly* in ``∩Γ(sources)``, only the integer bounds decide; the
  rest are *probed*, one ``kernels.contains`` per shared set.
* Every other step keeps only the injectivity test in its loop.

**Charging invariant** (deterministic, backend-independent): each
partial is charged ``Σ|Γ(source)| + |cands after slice_gt|`` whether or
not the set was computed for it — the legacy kernels' "elements
scanned" convention, so sharing changes wall time, never work units.

:func:`count_plan_sequential` runs the identical per-seed computation
single-threaded over the whole graph; it is the natural oracle half of
plan-vs-distributed differential tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

from repro import kernels
from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import Graph, VertexData
from repro.mining.cost import WorkMeter
from repro.plans.compiler import CompiledStep, ExecutionPlan

PartialImage = Tuple[int, ...]
_INF = float("inf")  # absent order bound; vertex ids may be negative
_SIZE = itemgetter(0)

# Unused in src; kept because benchmarks/e2e/layers.py imports the function.
BITSET_DENSITY_THRESHOLD = 0.05


def select_step_backends(plan: ExecutionPlan, graph: Graph) -> Tuple[str, ...]:
    """A per-step density guess at the fastest backend (bitset for dense
    candidate sets, numpy or reference for sparse ones); no job reads it."""
    available = kernels.available_backends()
    array_backend = "numpy" if "numpy" in available else "reference"
    universe = max(1, graph.num_vertices)
    avg = graph.avg_degree()
    density = avg / universe
    selected = []
    for step in plan.steps:
        estimated = avg * density ** (len(step.sources) - 1)
        if "bitset" in available and estimated / universe >= BITSET_DENSITY_THRESHOLD:
            selected.append("bitset")
        else:
            selected.append(array_backend)
    return tuple(selected)


def step_needs_data(step: CompiledStep) -> bool:
    """Whether the step must look at candidate VertexData (labels or
    attributes).  A pure structural count touches only ids."""
    return not (step.counting and step.label is None and not step.predicates)


def run_step(
    partials: Sequence[PartialImage],
    step: CompiledStep,
    data_of: Callable[[int], VertexData],
    charge: Callable[[float], None],
) -> Union[int, List[PartialImage]]:
    """Run one plan step over a batch of partial embeddings: the count
    for a counting step, the extended partials otherwise.  Charges the
    batch's work units (see the module docstring for the invariant)."""
    structural = not step_needs_data(step)
    sources, certain, probed = step.sources, step.certain, step.probed
    lower_of, upper_of, counting = step.greater_than, step.less_than, step.counting
    #: (source images, bounds) -> (charge, handle, size | filtered ids)
    memo: Dict[Tuple, Tuple] = {}
    needles: Dict[Tuple, List[int]] = {}
    units = count = 0
    extended: List[PartialImage] = []
    for partial in partials:
        lower = max([partial[q] for q in lower_of]) if lower_of else -_INF
        upper = min([partial[q] for q in upper_of]) if upper_of else _INF
        key = (*[partial[q] for q in sources], lower, upper)
        entry = memo.get(key)
        if entry is None:
            sized = [
                (len(array), array)
                for array in [data_of(vid).neighbors_array() for vid in key[:-2]]
            ]
            sized.sort(key=_SIZE)  # tightest running set first (stable)
            scanned = sum([size for size, _ in sized])
            cands = sized[0][1]
            for _, array in sized[1:]:
                cands = kernels.intersect(cands, array)
            if lower_of:
                cands = kernels.slice_gt(cands, lower)
            cost = scanned + len(cands)  # fixed before slice_lt / filters
            if upper_of:
                cands = kernels.slice_lt(cands, upper)
            if structural:
                entry = memo[key] = (cost, cands, len(cands))
            else:
                vids = kernels.tolist(cands)
                if step.label is not None:
                    vids = [v for v in vids if data_of(v).label == step.label]
                for op, value in step.predicates:
                    if op == "has-attr":
                        vids = [v for v in vids if value in data_of(v).attributes]
                entry = memo[key] = (cost, cands, vids)
        units += entry[0]
        if structural:
            # |cands| − |cands ∩ partial|; sources and bound positions are
            # never in cands (no self-loops: v ∉ Γ(v); bounds are strict)
            count += entry[2]
            for q in certain:
                if lower < partial[q] < upper:
                    count -= 1
            if probed:
                needles.setdefault(key, []).extend([partial[q] for q in probed])
        elif counting:
            count += sum([vid not in partial for vid in entry[2]])
        else:
            extended += [partial + (vid,) for vid in entry[2] if vid not in partial]
    charge(units)
    for key, images in needles.items():
        count -= sum(kernels.contains(memo[key][1], images))
    return count if counting else extended


def seed_admissible(vertex: VertexData, plan: ExecutionPlan) -> bool:
    """Can this vertex host the pattern root?"""
    if plan.root_label is not None and vertex.label != plan.root_label:
        return False
    for op, value in plan.root_predicates:
        if op == "has-attr" and value not in vertex.attributes:
            return False
    return len(vertex.neighbors) >= plan.min_root_degree


class PlanTask(Task):
    """Multi-round task: one plan step per round (cf. ``GMTask``)."""

    def __init__(self, seed: VertexData, plan: ExecutionPlan) -> None:
        super().__init__(seed)
        self.plan = plan
        self.partials: List[PartialImage] = [(seed.vid,)]
        self.known: Dict[int, VertexData] = {seed.vid: seed}
        self.pull(self._needed_for(plan.steps[0]))

    def _needed_for(self, step: CompiledStep) -> Set[int]:
        """Vertices to pull before running ``step``: every potential
        candidate (source-image neighbours) when the step reads vertex
        data; nothing for a fused structural count."""
        if not step_needs_data(step):
            return set()
        known = self.known
        images = {partial[q] for partial in self.partials for q in step.sources}
        return {
            vid for image in images for vid in known[image].neighbors
            if vid not in known
        }

    def split(self) -> Optional[List[Task]]:
        """Recursive task splitting (§9): halve the partial set.

        Counts stay exact because embeddings partition cleanly across
        the children; both continue from the same round.
        """
        if len(self.partials) < 2 or self.round >= len(self.plan.steps):
            return None
        mid = len(self.partials) // 2
        children: List[Task] = []
        for chunk in (self.partials[:mid], self.partials[mid:]):
            child = PlanTask.__new__(PlanTask)
            Task.__init__(child, self.seed)
            child.plan = self.plan
            child.partials = list(chunk)
            child.known = dict(self.known)
            child.round = self.round
            child.pull(child._needed_for(self.plan.steps[self.round]))
            children.append(child)
        return children

    def _clone_extra(self, out: Task) -> None:
        # the plan is frozen, partial images tuples, vertex records frozen
        out.partials = list(self.partials)
        out.known = dict(self.known)

    def context_size(self) -> int:
        known_bytes = sum(
            16 + 8 * len(d.neighbors) for d in self.known.values()
        )
        partial_bytes = sum(48 + 8 * len(p) for p in self.partials)
        return partial_bytes + known_bytes

    def update(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> None:
        self.known.update(cand_objs)
        step = self.plan.steps[self.round - 1]
        out = run_step(self.partials, step, self.known.__getitem__, self.charge)
        if step.counting or not out:
            self.finish(out or None)
            return
        self.partials = out
        self.subgraph.add_nodes({partial[-1] for partial in out})
        self.pull(self._needed_for(self.plan.steps[self.round]))


class PlanApp(GMinerApp):
    """Run a compiled plan as a G-Miner application.

    The job value is the total embedding count (symmetry-broken when
    the plan was compiled with ``symmetry="auto"``).
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.name = f"plan:{plan.name}"

    def make_task(self, vertex: VertexData) -> Optional[Task]:
        if not seed_admissible(vertex, self.plan):
            return None
        return PlanTask(vertex, self.plan)

    def run_seeds(
        self,
        vids: Sequence[int],
        data_of: Callable[[int], VertexData],
        charge: Callable[[float], None],
    ) -> Tuple[List[int], int, int]:
        """The native engine's chunk hook: :func:`run_roots` with no
        task objects, pull sets or candidate dicts (full graph access
        needs none).  Returns ``(results, tasks, rounds)`` exactly as
        one :class:`PlanTask` per admissible root would."""
        return run_roots(self.plan, vids, data_of, charge)

    def combine_results(self, results: Iterable[Optional[int]]) -> int:
        return sum(r for r in results if r is not None)


def run_roots(
    plan: ExecutionPlan,
    vids: Iterable[int],
    data_of: Callable[[int], VertexData],
    charge: Callable[[float], None],
) -> Tuple[List[int], int, int]:
    """The root loop: run ``plan`` from every admissible vertex of ``vids``.

    Each root runs :func:`run_step` step by step from ``[(root,)]`` and
    follows :class:`PlanTask`'s semantics exactly: it counts one round
    per step it enters, stops on an empty extension, and yields a count
    only when that count is non-zero.  Returns ``(counts, roots,
    rounds)`` with ``counts`` in root order.  Seed-scan costs are the
    caller's to charge.
    """
    counts: List[int] = []
    roots = rounds = 0
    steps = plan.steps
    for vid in vids:
        if not seed_admissible(data_of(vid), plan):
            continue
        roots += 1
        out: Union[int, List[PartialImage]] = [(vid,)]
        for step in steps:
            out = run_step(out, step, data_of, charge)
            rounds += 1
            if not out:
                break
        else:
            counts.append(out)
    return counts, roots, rounds


def count_plan_sequential(
    plan: ExecutionPlan, graph: Graph, meter: Optional[WorkMeter] = None
) -> int:
    """Single-threaded execution of a plan with full graph access.

    Runs :func:`run_roots` over every vertex — the same root loop the
    native engine runs per chunk, and the per-seed computation
    :class:`PlanTask` performs (same candidate generation, filters and
    charging) — so its value and, via ``meter``, its work units (minus
    the task generator's ``seed_cost`` scan) agree with the distributed
    job on any graph.
    """
    meter = meter if meter is not None else WorkMeter()
    # graph.vertex_data is memoised per vertex on the graph
    counts, _, _ = run_roots(plan, graph.vertices(), graph.vertex_data, meter.charge)
    return sum(counts)
