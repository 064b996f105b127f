"""Stand-alone graph utilities used across the system.

These support the infrastructure rather than the mining applications:
BFS levels (BDG partitioning's colouring), Hash-Min connected
components (BDG's fixup for tiny components, §6.1), and exact triangle
counting / clique checking used as ground truth in tests.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro import kernels
from repro.graph.graph import Graph


def bfs_levels(
    graph: Graph, source: int, max_depth: Optional[int] = None
) -> Dict[int, int]:
    """Breadth-first levels from ``source`` (optionally depth-bounded)."""
    levels = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        depth = levels[u]
        if max_depth is not None and depth >= max_depth:
            continue
        for v in graph.neighbors(u):
            if v not in levels:
                levels[v] = depth + 1
                frontier.append(v)
    return levels


def connected_components_hashmin(
    graph: Graph, vertices: Optional[Iterable[int]] = None
) -> Dict[int, int]:
    """Connected components labelled by minimum vertex ID (Hash-Min [39]).

    Restricted to ``vertices`` when given (BDG runs it on the vertices
    still uncoloured after BFS rounds).  Implemented as the iterative
    min-label propagation the Pregel algorithm performs, which converges
    to each vertex holding the smallest ID in its component.
    """
    universe: Set[int] = set(vertices) if vertices is not None else set(graph.vertices())
    label = {v: v for v in universe}
    changed = True
    while changed:
        changed = False
        for v in sorted(universe):
            best = label[v]
            for u in graph.neighbors(v):
                if u in universe and label[u] < best:
                    best = label[u]
            if best < label[v]:
                label[v] = best
                changed = True
    # path-compress to the component minimum
    for v in sorted(universe):
        while label[label[v]] != label[v]:
            label[v] = label[label[v]]
    return label


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    hist: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def triangle_count_exact(graph: Graph) -> int:
    """Exact global triangle count via ordered neighbor intersection.

    Reference implementation used to validate the TC application and
    baselines; counts each triangle once using the ``u < v < w`` rule.
    """
    data_of = graph.vertex_data
    total = 0
    for u in graph.vertices():
        higher = kernels.slice_gt(data_of(u).neighbors_array(), u)
        for v in kernels.tolist(higher):
            total += kernels.intersect_count(
                kernels.slice_gt(data_of(v).neighbors_array(), v),
                kernels.slice_gt(higher, v),
            )
    return total


def is_clique(graph: Graph, vertex_ids: Sequence[int]) -> bool:
    """Check that ``vertex_ids`` induce a complete subgraph."""
    vs = list(vertex_ids)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not graph.has_edge(u, v):
                return False
    return True


def graph_density(graph: Graph, vertex_ids: Optional[Sequence[int]] = None) -> float:
    """Edge density of the graph or of an induced subgraph (0..1)."""
    if vertex_ids is None:
        n = graph.num_vertices
        e = graph.num_edges
    else:
        vs = set(vertex_ids)
        n = len(vs)
        e = 0
        for u in vs:
            if graph.has_vertex(u):
                e += sum(1 for v in graph.neighbors(u) if v in vs)
        e //= 2
    if n < 2:
        return 0.0
    return 2.0 * e / (n * (n - 1))


def k_hop_neighborhood(graph: Graph, source: int, k: int) -> Set[int]:
    """Vertices within ``k`` hops of ``source`` (inclusive of source)."""
    return set(bfs_levels(graph, source, max_depth=k))
