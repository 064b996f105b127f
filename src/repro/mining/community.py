"""Community-detection kernel (the paper's CD application).

The paper mines communities as *attribute-coherent dense subgraphs*:
it adopts the branch-and-bound machinery of [33] for the dense-topology
part and filters newly added candidate vertices by attribute
similarity (§8.1).  The algorithm grows a community from a seed:

1. candidates = neighbours of the current community passing the
   attribute filter (Jaccard similarity with the seed ≥ ``tau``);
2. repeatedly admit the candidate with the strongest connectivity into
   the community, provided the density stays ≥ ``gamma``;
3. stop when no candidate qualifies; report if ``min_size`` reached.

Each community is reported by exactly one task — the one seeded at its
minimum vertex — so distributed counts need no deduplication.

The core is a **resumable stepper** (:class:`CommunityGrower`).  Its
persistent state is deliberately small — the members and their data,
matching G-Miner's task model where a task carries only its growing
subgraph while candidate data lives in the vertex cache.  Candidate
data is *re-requested* every step (``("need", vids)``); the G-Miner
task turns that into a pull round (mostly cache hits), the sequential
wrapper feeds it straight from the graph.  Both compute byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.graph.attributes import jaccard_similarity
from repro.mining.cost import WorkMeter

#: Stepper outcome tags.
NEED = "need"
DONE = "done"

#: Vertex payload: (neighbors, attributes).
VertexInfo = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class CommunityParams:
    """Thresholds for CD: attribute similarity, density, size."""

    tau: float = 0.5  # minimum attribute similarity to the seed
    gamma: float = 0.55  # minimum internal edge density
    min_size: int = 4
    max_size: int = 64


def _density(internal_edges: int, size: int) -> float:
    if size < 2:
        return 1.0
    return 2.0 * internal_edges / (size * (size - 1))


class CommunityGrower:
    """Resumable greedy community growth from one seed.

    Persistent state: the community, its members' data, and the link
    counts of frontier candidates.  Candidate attribute data is taken
    from the ``candidate_data`` argument of each :meth:`advance` call
    and not retained.
    """

    def __init__(
        self,
        seed: int,
        seed_neighbors: Sequence[int],
        seed_attrs: Sequence[int],
        params: CommunityParams,
    ) -> None:
        self.seed = seed
        self.params = params
        self.seed_attrs = tuple(seed_attrs)
        # exact backends: the seed-vs-candidate verdict, a pure function
        # of the pair that the greedy scan asks for again at every
        # admission round (the charge is still made every round)
        self._similar: Dict[int, bool] = {}
        # kernel_backend="sketch" only: attribute handles
        self._attr_sketches: Dict[int, object] = {}
        self.community: Set[int] = {seed}
        self.member_data: Dict[int, VertexInfo] = {
            seed: (tuple(seed_neighbors), self.seed_attrs)
        }
        self._member_bytes = info_bytes(self.member_data[seed])
        self.internal_edges = 0
        # links[v] = edges between candidate v and the current community
        self.links: Dict[int, int] = {}
        for u in seed_neighbors:
            self.links[u] = self.links.get(u, 0) + 1
        self.finished = False
        self.result: Optional[Tuple[int, ...]] = None

    def needed(self) -> List[int]:
        """Candidate vertices whose data the next step requires."""
        return sorted(v for v in self.links if v not in self.community)

    def advance(self, candidate_data: Mapping[int, VertexInfo], meter: WorkMeter):
        """Run greedy admissions until candidate data is missing or
        growth stops.

        ``candidate_data`` must cover :meth:`needed`; a fresh ``need``
        is returned whenever an admission introduces new candidates.
        Returns ``(DONE, community-or-None)`` at termination.
        """
        if self.finished:
            return (DONE, self.result)
        sketch = kernels.get_backend() == "sketch"
        while len(self.community) < self.params.max_size:
            pending = [v for v in self.needed() if v not in candidate_data]
            if pending:
                return (NEED, self.needed())
            best: Optional[int] = None
            best_key: Tuple[int, int] = (0, 0)
            # one unit per candidate scanned, charged in bulk
            meter.charge(len(self.links))
            for v, link_count in self.links.items():
                if v in self.community:
                    continue
                if sketch:
                    # certified threshold test: a decisive confidence
                    # interval answers from the sketches, a straddling
                    # one falls back to the exact arrays (charged)
                    ok, scanned = kernels.jaccard_ge(
                        attr_sketch(self._attr_sketches, self.seed, self.seed_attrs),
                        attr_sketch(self._attr_sketches, v, candidate_data[v][1]),
                        self.params.tau,
                    )
                    meter.charge(scanned + 1)
                else:
                    ok = self._similar.get(v)
                    if ok is None:
                        sim = jaccard_similarity(self.seed_attrs, candidate_data[v][1])
                        ok = self._similar[v] = sim >= self.params.tau
                    meter.charge(len(self.seed_attrs) + 1)
                if not ok:
                    continue
                key = (link_count, -v)
                if best is None or key > best_key:
                    best = v
                    best_key = key
            if best is None:
                break
            new_edges = self.internal_edges + self.links[best]
            if _density(new_edges, len(self.community) + 1) < self.params.gamma:
                break
            self.community.add(best)
            self.member_data[best] = candidate_data[best]
            self._member_bytes += info_bytes(candidate_data[best])
            self.internal_edges = new_edges
            neighbors, _ = candidate_data[best]
            meter.charge(len(neighbors))
            for u in neighbors:
                if u not in self.community:
                    self.links[u] = self.links.get(u, 0) + 1
            self.links.pop(best, None)
        self.finished = True
        self.result = self._final()
        return (DONE, self.result)

    def _final(self) -> Optional[Tuple[int, ...]]:
        if len(self.community) < self.params.min_size:
            return None
        if self.seed != min(self.community):
            # the task seeded at the minimum member reports it instead
            return None
        return tuple(sorted(self.community))

    def estimate_size(self) -> int:
        """Byte estimate of persistent grower state (task memory)."""
        return 64 + 16 * len(self.links) + self._member_bytes


def info_bytes(info: VertexInfo) -> int:
    """Task-memory estimate of one member's (neighbours, attributes)."""
    return 16 + 8 * len(info[0]) + 8 * len(info[1])


def attr_sketch(cache: Dict[int, object], vid: int, attrs: Sequence[int]):
    """The ``sketch`` backend's handle of a vertex's attributes, built once."""
    handle = cache.get(vid)
    if handle is None:
        handle = cache[vid] = kernels.unique_sorted(attrs)
    return handle


def run_grower(
    grower,
    attributes: Mapping[int, Sequence[int]],
    adjacency: Mapping[int, Iterable[int]],
    meter: WorkMeter,
) -> Optional[Tuple[int, ...]]:
    """Full-access driver of a cd or gc grower: answer every ``need``
    straight from the graph until the grower is done."""
    supplied: Dict[int, VertexInfo] = {}
    while True:
        status, payload = grower.advance(supplied, meter)
        if status == DONE:
            return payload
        for vid in payload:
            if vid not in supplied:
                supplied[vid] = (
                    tuple(adjacency.get(vid, ())),
                    tuple(attributes.get(vid, ())),
                )


def grow_community(
    seed: int,
    params: CommunityParams,
    attributes: Mapping[int, Sequence[int]],
    adjacency: Mapping[int, Iterable[int]],
    meter: WorkMeter,
) -> Optional[Tuple[int, ...]]:
    """Full-access wrapper: run the grower to completion on one graph."""
    grower = CommunityGrower(
        seed,
        tuple(adjacency.get(seed, ())),
        tuple(attributes.get(seed, ())),
        params,
    )
    return run_grower(grower, attributes, adjacency, meter)


def community_detection_sequential(
    params: CommunityParams,
    attributes: Mapping[int, Sequence[int]],
    adjacency: Mapping[int, Sequence[int]],
    meter: WorkMeter,
) -> List[Tuple[int, ...]]:
    """All communities in the graph (single-thread baseline kernel)."""
    out: List[Tuple[int, ...]] = []
    for seed in sorted(adjacency):
        community = grow_community(seed, params, attributes, adjacency, meter)
        if community is not None:
            out.append(community)
    return out
