"""Size-k graphlet counting (GL) on G-Miner.

A sixth application beyond the paper's five, straight from its §4.1
taxonomy (category 1 lists "size-k graphlets" [2]): count all connected
induced k-vertex subgraphs, classified by isomorphism type.

The task seeded at ``v`` enumerates graphlets whose minimum vertex is
``v``.  It needs the (k-1)-hop higher neighbourhood, pulled breadth-
first: round r pulls the vertices discovered in round r-1, and the
final round runs the ESU enumeration.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import VertexData
from repro.mining.graphlets import graphlets_for_seed, merge_histograms


class GLTask(Task):
    """Pulls k-1 hops of higher neighbours, then enumerates."""

    def __init__(self, seed: VertexData, k: int, classify: bool) -> None:
        super().__init__(seed)
        self.k = k
        self.classify = classify
        self.known: Dict[int, VertexData] = {seed.vid: seed}
        self.pull(u for u in seed.neighbors if u > seed.vid)

    def _clone_extra(self, out: Task) -> None:
        out.known = dict(self.known)  # vertex records are frozen

    def context_size(self) -> int:
        return sum(16 + 8 * len(d.neighbors) for d in self.known.values())

    def update(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> None:
        self.known.update(cand_objs)
        if self.round < self.k - 1:
            frontier: Set[int] = set()
            for data in cand_objs.values():
                self.charge(len(data.neighbors))
                frontier.update(u for u in data.neighbors if u > self.seed.vid)
            needed = frontier - set(self.known)
            if needed:
                self.pull(needed)
                return
        adjacency = {vid: data.neighbors for vid, data in self.known.items()}
        counts = graphlets_for_seed(
            self.seed.vid, self.k, adjacency, meter=self, classify=self.classify
        )
        self.subgraph.add_nodes(adjacency)
        self.finish(counts if counts else None)


class GraphletCountingApp(GMinerApp):
    """Histogram of connected k-graphlets by isomorphism class."""

    name = "gl"

    def __init__(self, k: int = 4, classify: bool = True) -> None:
        if k < 2:
            raise ValueError("graphlets need k >= 2")
        self.k = k
        self.classify = classify

    def make_task(self, vertex: VertexData) -> Optional[Task]:
        if not any(u > vertex.vid for u in vertex.neighbors):
            return None
        return GLTask(vertex, self.k, self.classify)

    def combine_results(self, results) -> Dict[str, int]:
        return merge_histograms(r for r in results if r is not None)
