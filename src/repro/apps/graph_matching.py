"""Graph matching (GM) on G-Miner.

Implements the paper's running example (Figure 1, Listing 2): a task
seeds at every vertex whose label matches the pattern root; round ``r``
matches the pattern's level-``r`` nodes against the pulled candidates,
growing the set of partial embeddings, until the full pattern depth is
reached and the match count is reported.

GM's memory weight comes from the partial-embedding sets the tasks
carry (the paper's "complex workload"), which the task accounts via
``context_size``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.api import GMinerApp
from repro.core.task import Task, TaskEnv
from repro.graph.graph import VertexData
from repro.mining.matching import (
    PartialEmbedding,
    estimate_partials_size,
    frontier_vertices,
    match_level,
)
from repro.mining.patterns import PAPER_PATTERN, TreePattern


class GMTask(Task):
    """Multi-round task: one pattern level matched per round."""

    def __init__(self, seed: VertexData, pattern: TreePattern) -> None:
        super().__init__(seed)
        self.pattern = pattern
        self.partials: List[PartialEmbedding] = [((seed.vid,),)]
        # vertex data this task has observed: the matcher draws labels
        # and adjacency from here (the paper's growing subG state)
        self.known: Dict[int, VertexData] = {seed.vid: seed}
        # round 1 matches level 1 among the root's neighbours
        self.pull(seed.neighbors)

    def split(self) -> Optional[List[Task]]:
        """Recursive task splitting (the paper's §9 extension).

        A task whose partial-embedding set has fanned out splits into
        two children, each carrying half the partials and continuing
        from the same round.  Counts stay exact because embeddings
        partition cleanly.
        """
        if len(self.partials) < 2 or self.round >= self.pattern.depth:
            return None
        mid = len(self.partials) // 2
        children = []
        for chunk in (self.partials[:mid], self.partials[mid:]):
            child = GMTask.__new__(GMTask)
            Task.__init__(child, self.seed)
            child.pattern = self.pattern
            child.partials = list(chunk)
            child.known = dict(self.known)
            child.round = self.round
            frontier = frontier_vertices(chunk, self.pattern, self.round + 1)
            needed: Set[int] = set()
            for vid in frontier:
                needed.update(child.known[vid].neighbors)
            child.pull(needed - set(child.known))
            children.append(child)
        return children

    def _clone_extra(self, out: Task) -> None:
        # partial embeddings are tuples and vertex records frozen
        out.partials = list(self.partials)
        out.known = dict(self.known)

    def context_size(self) -> int:
        known_bytes = sum(
            16 + 8 * len(d.neighbors) for d in self.known.values()
        )
        return estimate_partials_size(self.partials) + known_bytes

    def update(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> None:
        self.known.update(cand_objs)
        labels = {vid: data.label for vid, data in self.known.items()}
        adjacency = {vid: data.neighbors for vid, data in self.known.items()}
        level_nodes = self.pattern.level_nodes(self.round)
        self.partials = match_level(
            self.partials, level_nodes, labels, adjacency, meter=self
        )
        if not self.partials:
            self.finish(None)
            return
        for partial in self.partials:
            self.subgraph.add_nodes(partial[-1])
        if self.round == self.pattern.depth:
            self.finish(len(self.partials))
            return
        frontier = frontier_vertices(self.partials, self.pattern, self.round + 1)
        needed: Set[int] = set()
        for vid in frontier:
            needed.update(self.known[vid].neighbors)
        self.pull(needed - set(self.known))


class GraphMatchingApp(GMinerApp):
    """Count embeddings of a tree pattern; job value is the total."""

    name = "gm"

    def __init__(self, pattern: TreePattern = PAPER_PATTERN) -> None:
        pattern.validate()
        self.pattern = pattern

    def make_task(self, vertex: VertexData) -> Optional[Task]:
        if vertex.label != self.pattern.root_label:
            return None
        return GMTask(vertex, self.pattern)

    def combine_results(self, results) -> int:
        return sum(r for r in results if r is not None)
