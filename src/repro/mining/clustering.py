"""Focused graph-clustering kernel (the paper's GC application).

Follows FocusCO [21] as §8.1 describes: the user supplies exemplar
vertices; attribute weights are inferred from what the exemplars agree
on; clusters are then extracted around seeds by an iterative add/remove
refinement that optimises *focused cohesion* — average weighted
internal degree, where edges are weighted by the attribute similarity
of their endpoints under the inferred weights.  The refinement loops
until convergence, which is what makes GC the paper's heaviest
workload.

Like the CD kernel, the core is a **resumable stepper**
(:class:`FocusedClusterGrower`) shared verbatim by the G-Miner task and
the sequential baseline.  Persistent state is only the members, their
data and the incident-weight index (the task-model contract); frontier
data arrives per step and is not retained.

Cohesion is maintained *incrementally*: the grower tracks the total
internal edge weight ``W`` and each member's weighted degree into the
cluster, so an addition trial costs one pass over the candidate's
neighbourhood and a removal trial is O(1) — the optimisation any
practical FocusCO implementation applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.graph.attributes import infer_attribute_weights, weighted_similarity
from repro.mining.community import (
    DONE,
    NEED,
    VertexInfo,
    attr_sketch,
    info_bytes,
    run_grower,
)
from repro.mining.cost import WorkMeter


@dataclass(frozen=True)
class FocusParams:
    """Parameters for focused clustering."""

    min_edge_weight: float = 0.3  # focused edges must be at least this similar
    min_cohesion_gain: float = 1e-6  # stop when refinement stops improving
    min_size: int = 4
    max_size: int = 64
    max_iterations: int = 25


class FocusedClusterGrower:
    """Resumable FocusCO-style cluster refinement from one seed."""

    def __init__(
        self,
        seed: int,
        seed_neighbors: Sequence[int],
        seed_attrs: Sequence[int],
        params: FocusParams,
        weights: Dict[int, float],
    ) -> None:
        self.seed = seed
        self.params = params
        self.weights = weights
        self.members: Set[int] = {seed}
        self.member_data: Dict[int, VertexInfo] = {
            seed: (tuple(seed_neighbors), tuple(seed_attrs))
        }
        # incremental cohesion state: total internal edge weight and
        # each member's weighted degree into the cluster
        self.total_weight = 0.0
        self.incident: Dict[int, float] = {seed: 0.0}
        self.iterations = 0
        self.finished = False
        self.result: Optional[Tuple[int, ...]] = None
        self._edge_weight_cache: Dict[Tuple[int, int], float] = {}
        # kernel_backend="sketch" only: attribute handles (a derived view)
        self._attr_sketches: Dict[int, object] = {}
        self._member_bytes = info_bytes(self.member_data[seed])

    # -- helpers --------------------------------------------------------

    @property
    def cohesion(self) -> float:
        n = len(self.members)
        if n < 2:
            return 0.0
        return 2.0 * self.total_weight / n

    def _edge_weight(
        self, u: int, v: int, candidate_data: Mapping[int, VertexInfo],
        meter: WorkMeter,
    ) -> float:
        key = (u, v) if u < v else (v, u)
        cached = self._edge_weight_cache.get(key)
        if cached is not None:
            meter.charge()
            return cached
        # a member's data is held by the grower, a candidate's supplied
        au = (self.member_data.get(u) or candidate_data[u])[1]
        av = (self.member_data.get(v) or candidate_data[v])[1]
        if kernels.get_backend() == "sketch":
            # sampled similarity from the attribute sketches (exact on
            # fully captured attribute lists); charged at the registers
            # examined instead of the raw list lengths
            weight, scanned = kernels.weighted_similarity_estimate(
                attr_sketch(self._attr_sketches, u, au),
                attr_sketch(self._attr_sketches, v, av),
                self.weights,
            )
            meter.charge(scanned + 1)
        else:
            # charge the raw list lengths, the cost the per-probe
            # implementation modelled, not the deduplicated ones
            meter.charge(len(au) + len(av) + 1)
            weight = weighted_similarity(au, av, self.weights)
        self._edge_weight_cache[key] = weight
        return weight

    def _connection(
        self,
        v: int,
        neighbors: Sequence[int],
        candidate_data: Mapping[int, VertexInfo],
        meter: WorkMeter,
    ) -> Dict[int, float]:
        """Weights of v's edges into the current members."""
        out: Dict[int, float] = {}
        meter.charge(len(neighbors))
        for u in neighbors:
            if u in self.members:
                out[u] = self._edge_weight(u, v, candidate_data, meter)
        return out

    def _admit(self, v: int, connection: Dict[int, float], data: VertexInfo) -> None:
        self.members.add(v)
        self.member_data[v] = data
        self._member_bytes += info_bytes(data)
        self.incident[v] = sum(connection.values())
        for u, w in connection.items():
            self.incident[u] += w
        self.total_weight += self.incident[v]

    def _expel(self, v: int, candidate_data, meter: WorkMeter) -> None:
        neighbors, _ = self.member_data[v]
        meter.charge(len(neighbors))
        for u in neighbors:
            if u in self.members and u != v:
                self.incident[u] -= self._edge_weight(u, v, candidate_data, meter)
        self.total_weight -= self.incident[v]
        self.members.discard(v)
        self._member_bytes -= info_bytes(self.member_data.pop(v))
        self.incident.pop(v, None)

    def frontier(self) -> Set[int]:
        out: Set[int] = set()
        for u in self.members:
            neighbors, _ = self.member_data[u]
            out.update(v for v in neighbors if v not in self.members)
        return out

    def needed(self) -> List[int]:
        return sorted(self.frontier())

    # -- the stepper ------------------------------------------------------

    def advance(self, candidate_data: Mapping[int, VertexInfo], meter: WorkMeter):
        """Run add/remove refinement until unseen frontier data is
        required or the cluster converges.  Same contract as
        :meth:`repro.mining.community.CommunityGrower.advance`."""
        if self.finished:
            return (DONE, self.result)
        while self.iterations < self.params.max_iterations:
            frontier = self.frontier()
            missing = sorted(v for v in frontier if v not in candidate_data)
            if missing:
                return (NEED, self.needed())
            self.iterations += 1
            improved = False
            # --- addition pass: evaluate the frontier once, then admit
            # every candidate (strongest edge first) whose admission
            # improves cohesion.  Batch admission keeps the number of
            # frontier evaluations — the dominant cost — proportional
            # to the cluster's *diameter* rather than its size.
            candidate_scores: Dict[int, float] = {}
            connections: Dict[int, Dict[int, float]] = {}
            for v in sorted(frontier):
                connection = self._connection(
                    v, candidate_data[v][0], candidate_data, meter
                )
                if not connection:
                    continue
                best_edge = max(connection.values())
                if best_edge >= self.params.min_edge_weight:
                    candidate_scores[v] = best_edge
                    connections[v] = connection
            admitted_this_round: List[int] = []
            for v in sorted(
                candidate_scores, key=lambda c: (-candidate_scores[c], c)
            ):
                if len(self.members) >= self.params.max_size:
                    break
                # true connection includes edges to members admitted
                # earlier in this same round
                connection = dict(connections[v])
                meter.charge(len(admitted_this_round))
                if admitted_this_round:
                    neighbors = set(candidate_data[v][0])
                    for u in admitted_this_round:
                        if u in neighbors:
                            connection[u] = self._edge_weight(
                                u, v, candidate_data, meter
                            )
                gain = sum(connection.values())
                n = len(self.members)
                trial_cohesion = 2.0 * (self.total_weight + gain) / (n + 1)
                if (
                    trial_cohesion > self.cohesion + self.params.min_cohesion_gain
                    or n == 1
                ):
                    self._admit(v, connection, candidate_data[v])
                    admitted_this_round.append(v)
                    improved = True
            # --- removal pass: O(1) per member via incident weights
            if len(self.members) > 2:
                n = len(self.members)
                best_removal: Optional[int] = None
                best_cohesion = self.cohesion
                # one unit per non-seed member trialled, charged in bulk
                meter.charge(len(self.members) - 1)
                for v in sorted(self.members):
                    if v == self.seed:
                        continue
                    trial = 2.0 * (self.total_weight - self.incident[v]) / (n - 1)
                    if trial > best_cohesion + self.params.min_cohesion_gain:
                        best_cohesion = trial
                        best_removal = v
                if best_removal is not None:
                    self._expel(best_removal, candidate_data, meter)
                    improved = True
            if not improved:
                break
        self.finished = True
        self.result = self._final()
        return (DONE, self.result)

    def _final(self) -> Optional[Tuple[int, ...]]:
        if len(self.members) < self.params.min_size:
            return None
        if self.seed != min(self.members):
            return None
        return tuple(sorted(self.members))

    def estimate_size(self) -> int:
        return 64 + 16 * len(self.incident) + self._member_bytes


def extract_focused_cluster(
    seed: int,
    params: FocusParams,
    attributes: Mapping[int, Sequence[int]],
    adjacency: Mapping[int, Iterable[int]],
    weights: Dict[int, float],
    meter: WorkMeter,
) -> Optional[Tuple[int, ...]]:
    """Full-access wrapper: refine the cluster at ``seed`` to convergence."""
    grower = FocusedClusterGrower(
        seed,
        tuple(adjacency.get(seed, ())),
        tuple(attributes.get(seed, ())),
        params,
        weights,
    )
    return run_grower(grower, attributes, adjacency, meter)


def focused_clustering_sequential(
    exemplars: Sequence[int],
    params: FocusParams,
    attributes: Mapping[int, Sequence[int]],
    adjacency: Mapping[int, Sequence[int]],
    meter: WorkMeter,
) -> List[Tuple[int, ...]]:
    """Full FocusCO pipeline on one graph (single-thread kernel)."""
    weights = infer_attribute_weights([attributes.get(e, ()) for e in exemplars])
    out: List[Tuple[int, ...]] = []
    for seed in sorted(adjacency):
        cluster = extract_focused_cluster(
            seed, params, attributes, adjacency, weights, meter
        )
        if cluster is not None:
            out.append(cluster)
    return out
