"""Triangle counting (TC) on G-Miner.

The lightest of the five workloads (§8.1): each task needs exactly one
round.  The task seeded at ``v`` pulls the adjacency of its higher-ID
neighbours and counts triangles ``v < u < w``; summing per-task counts
gives the exact global count.

Under ``kernel_backend="sketch"`` the same tasks produce per-seed
*estimates* (:mod:`repro.kernels.sketch`) that combine by summing
points and variances; every exact backend is untouched — the estimate
path is gated strictly on the active backend name.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import VertexData
from repro.mining.cost import WorkMeter
from repro.mining.triangles import triangles_for_seed, triangles_for_seed_estimate


def admits_seed(vertex: VertexData) -> bool:
    """Whether ``vertex`` seeds a task: a triangle ``v < u < w`` needs
    at least two higher neighbours.  Scans from the top, where a sorted
    adjacency keeps them, so most seeds are decided after two probes."""
    vid = vertex.vid
    higher = 0
    for u in reversed(vertex.neighbors):
        if u > vid:
            higher += 1
            if higher == 2:
                return True
    return False


class _Handles(dict):
    """Neighbour handles of one chunk, filled on first use."""

    __slots__ = ("_data_of",)

    def __init__(self, data_of: Callable[[int], VertexData]) -> None:
        super().__init__()
        self._data_of = data_of

    def __missing__(self, vid: int) -> Any:
        handle = self[vid] = self._data_of(vid).neighbors_array()
        return handle


class TCTask(Task):
    """One-round task: count triangles whose minimum vertex is the seed."""

    def __init__(self, seed: VertexData) -> None:
        super().__init__(seed)
        higher = [u for u in seed.neighbors if u > seed.vid]
        self.pull(higher)

    def update(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> None:
        neighbor_adjacency = {
            vid: data.neighbors_array() for vid, data in cand_objs.items()
        }
        if kernels.get_backend() == "sketch":
            count = triangles_for_seed_estimate(
                self.seed.vid,
                self.seed.neighbors_array(),
                neighbor_adjacency,
                meter=self,
            )
        else:
            count = triangles_for_seed(
                self.seed.vid,
                self.seed.neighbors_array(),
                neighbor_adjacency,
                meter=self,
            )
        self.subgraph.add_nodes(neighbor_adjacency)
        self.finish(count)


class TriangleCountingApp(GMinerApp):
    """Exact triangle counting; the job value is the global count."""

    name = "tc"

    def make_task(self, vertex: VertexData) -> Optional[Task]:
        return TCTask(vertex) if admits_seed(vertex) else None

    def run_seeds(
        self,
        vids: Sequence[int],
        data_of: Callable[[int], VertexData],
        charge: Callable[[float], None],
    ) -> Tuple[List[Any], int, int]:
        """The native engine's chunk hook: per admitted seed, the kernel
        call :meth:`TCTask.update` makes, on neighbour handles shared
        across the chunk, with no task objects or candidate dicts.
        Returns ``(results, tasks, rounds)`` exactly as one ``TCTask``
        per admitted seed would: every count (zeros included) in seed
        order, one round each."""
        count_seed = (
            triangles_for_seed_estimate
            if kernels.get_backend() == "sketch"
            else triangles_for_seed
        )
        handles = _Handles(data_of)
        meter = WorkMeter()
        results = []
        for vid in vids:
            seed = data_of(vid)
            if admits_seed(seed):
                results.append(
                    count_seed(vid, seed.neighbors_array(), handles, meter)
                )
        charge(meter.units)
        return results, len(results), len(results)

    def combine_results(self, results):
        values = [r for r in results if r is not None]
        if any(not isinstance(r, (bool, int, float)) for r in values):
            # sketch-backend runs finish tasks with Estimates: combine
            # by summed points and variances (the job layer surfaces
            # the interval as JobResult.estimate)
            from repro.kernels.sketch import sum_estimates

            return sum_estimates(values)
        return sum(values)
