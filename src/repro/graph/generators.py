"""Seeded synthetic graph generators.

The paper's datasets are web/social graphs with heavy-tailed degree
distributions and high clustering.  Three generators cover the shapes
the experiments need:

* :func:`preferential_attachment_graph` — Holme–Kim style scale-free
  graphs with tunable triangle closure (stands in for social networks
  like Orkut/Friendster: skewed degrees, many triangles/cliques).
* :func:`rmat_graph` — Kronecker-style R-MAT (stands in for web-scale
  sparse graphs like Skitter/BTC: extreme hubs, low clustering).
* :func:`planted_partition_graph` — communities with dense insides and
  sparse cross edges (ground truth for community detection/clustering).

All generators take an explicit ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.attributes import AttributeSpace
from repro.graph.graph import Graph


def preferential_attachment_graph(
    n: int,
    m: int,
    triangle_prob: float = 0.5,
    seed: int = 0,
    max_degree: Optional[int] = None,
) -> Graph:
    """Holme–Kim powerlaw-cluster graph.

    Each new vertex attaches ``m`` edges; after a preferential
    attachment step, with probability ``triangle_prob`` the next edge
    closes a triangle with a neighbor of the previous target.  High
    ``triangle_prob`` yields the clique-rich structure social networks
    show, which is what makes MCF/TC workloads interesting.

    ``max_degree`` caps hub growth.  Real social graphs have a tiny
    max-degree/|V| ratio (Orkut: 33k of 3M ≈ 1%); at our reduced scale
    an uncapped hub would touch a quarter of the graph and one mining
    task would dwarf the whole workload, so capping is *more* faithful
    to the per-task work distribution, not less.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = random.Random(seed)
    m = min(m, max(1, n - 1))
    edges: List[Tuple[int, int]] = []
    # repeated-nodes list implements preferential attachment in O(1)
    repeated: List[int] = []
    # sorted neighbour lists: the triangle step draws from them in order
    adjacency: Dict[int, List[int]] = {v: [] for v in range(n)}

    def saturated(v: int) -> bool:
        return max_degree is not None and len(adjacency[v]) >= max_degree

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        at_u = adjacency[u]
        i = bisect.bisect_left(at_u, v)
        if i < len(at_u) and at_u[i] == v:
            return False
        at_u.insert(i, v)
        bisect.insort(adjacency[v], u)
        edges.append((u, v))
        repeated.append(u)
        repeated.append(v)
        return True

    # seed ring of m+1 vertices: keeps early attachment well-defined
    # without planting an artificial giant clique among low IDs
    seed_size = min(m + 1, n)
    for u in range(seed_size):
        add_edge(u, (u + 1) % seed_size)
    if seed_size > 2:
        for u in range(seed_size):
            add_edge(u, (u + 2) % seed_size)

    for new in range(seed_size, n):
        targets: List[int] = []
        chosen = set()
        last_target: Optional[int] = None
        attempts = 0
        while len(targets) < m and attempts < 50 * m:
            attempts += 1
            candidate: Optional[int] = None
            if (
                last_target is not None
                and rng.random() < triangle_prob
                and adjacency[last_target]
            ):
                candidate = rng.choice(adjacency[last_target])
            if candidate is None or candidate == new or candidate in chosen:
                candidate = repeated[rng.randrange(len(repeated))]
            if candidate != new and candidate not in chosen and not saturated(candidate):
                targets.append(candidate)
                chosen.add(candidate)
                last_target = candidate
        for t in targets:
            add_edge(new, t)
    return Graph.from_edges(edges, vertices=range(n))


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    max_degree: Optional[int] = None,
) -> Graph:
    """R-MAT graph with ``2**scale`` vertex slots.

    The standard recursive quadrant sampler (Graph500 parameters by
    default).  Duplicate edges and self-loops are dropped; isolated
    slots are dropped too, so ``num_vertices`` is slightly below
    ``2**scale`` as with real R-MAT data.

    ``max_degree`` drops excess edges at oversized hubs; see
    :func:`preferential_attachment_graph` for why capping keeps the
    per-task work distribution faithful at reduced scale.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a+b+c must be <= 1")
    rng = random.Random(seed)
    n = 1 << scale
    target_edges = edge_factor * n
    degree: Dict[int, int] = {}
    edges: List[Tuple[int, int]] = []
    seen = set()
    for _ in range(target_edges):
        u = v = 0
        for _level in range(scale):
            r = rng.random()
            u <<= 1
            v <<= 1
            if r < a:
                pass
            elif r < a + b:
                v |= 1
            elif r < a + b + c:
                u |= 1
            else:
                u |= 1
                v |= 1
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        if max_degree is not None and (
            degree.get(u, 0) >= max_degree or degree.get(v, 0) >= max_degree
        ):
            continue
        seen.add(key)
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        edges.append((u, v))
    return Graph.from_edges(edges)


def planted_partition_graph(
    num_communities: int,
    community_size: int,
    p_in: float = 0.4,
    p_out: float = 0.01,
    seed: int = 0,
) -> Tuple[Graph, Dict[int, int]]:
    """Planted-partition graph plus the ground-truth community map.

    Returns ``(graph, {vid: community_index})``.  Used by the CD and GC
    applications: communities are dense inside (``p_in``) and sparse
    across (``p_out``), and the dataset registry gives each community
    correlated attributes so attribute filters line up with topology.
    """
    if num_communities < 1 or community_size < 1:
        raise ValueError("need at least one community of size one")
    rng = random.Random(seed)
    n = num_communities * community_size
    membership = {v: v // community_size for v in range(n)}
    edges: List[Tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if membership[u] == membership[v] else p_out
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(edges, vertices=range(n)), membership


def random_labels(
    graph: Graph,
    alphabet: Sequence[str] = ("a", "b", "c", "d", "e", "f", "g"),
    seed: int = 0,
) -> None:
    """Assign uniform random labels in place (paper §8.2, GM setup)."""
    rng = random.Random(seed)
    for vid in graph.vertices():
        graph.set_label(vid, alphabet[rng.randrange(len(alphabet))])


def random_attributes(
    graph: Graph,
    space: Optional[AttributeSpace] = None,
    seed: int = 0,
    community_map: Optional[Dict[int, int]] = None,
    coherence: float = 0.8,
) -> None:
    """Assign attribute lists in place (paper footnote 7).

    Each vertex gets one value per dimension, uniform in
    ``[1, values_per_dimension]``.  When ``community_map`` is given,
    members of the same community share each dimension's value with
    probability ``coherence``, which plants the attribute-coherent
    communities CD and GC look for.
    """
    space = space or AttributeSpace()
    rng = random.Random(seed)
    community_profiles: Dict[int, List[int]] = {}
    if community_map is not None:
        for community in sorted(set(community_map.values())):
            community_profiles[community] = [
                rng.randint(1, space.values_per_dimension)
                for _ in range(space.dimensions)
            ]
    for vid in graph.vertices():
        attrs = []
        profile = None
        if community_map is not None and vid in community_map:
            profile = community_profiles[community_map[vid]]
        for dim in range(space.dimensions):
            if profile is not None and rng.random() < coherence:
                value = profile[dim]
            else:
                value = rng.randint(1, space.values_per_dimension)
            attrs.append(space.encode(dim, value))
        graph.set_attributes(vid, attrs)
