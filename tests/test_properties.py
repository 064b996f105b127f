"""Property-based tests (hypothesis) on core data structures and
invariants: graph construction, subgraph split, LSH, the RCV cache,
the task store, partitioners, and kernel cross-checks."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lsh import MinHashLSH
from repro.core.rcv_cache import CachePolicy, RCVCache
from repro.core.subgraph import Subgraph
from repro.graph.algorithms import triangle_count_exact
from repro.graph.graph import Graph, VertexData
from repro.graph.io import graph_to_lines, load_adjacency_text
from repro.mining.cliques import SharedBound, max_clique_sequential, maximal_cliques
from repro.mining.cost import WorkMeter
from repro.mining.triangles import triangle_count_sequential
from repro.partitioning import BDGPartitioner, HashPartitioner

pytestmark = pytest.mark.property

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=0,
    max_size=120,
)

small_edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=0,
    max_size=40,
)


# ---------------------------------------------------------------- graph

@given(edge_lists)
def test_graph_adjacency_symmetric(edges):
    g = Graph.from_edges(edges)
    for v in g.vertices():
        for u in g.neighbors(v):
            assert v in g.neighbors(u)


@given(edge_lists)
def test_graph_no_self_loops_and_degree_sum(edges):
    g = Graph.from_edges(edges)
    for v in g.vertices():
        assert v not in g.neighbors(v)
    assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


@given(edge_lists)
def test_graph_io_round_trip(edges):
    g = Graph.from_edges(edges)
    reloaded = load_adjacency_text(graph_to_lines(g))
    assert reloaded.num_vertices == g.num_vertices
    assert reloaded.num_edges == g.num_edges
    for v in g.vertices():
        assert reloaded.neighbors(v) == g.neighbors(v)


@given(edge_lists, st.integers(0, 30), st.integers(0, 30))
def test_subgraph_is_induced(edges, lo, hi):
    g = Graph.from_edges(edges)
    keep = [v for v in g.vertices() if lo <= v <= hi]
    sub = g.subgraph(keep)
    for v in sub.vertices():
        for u in sub.neighbors(v):
            assert g.has_edge(u, v)
    # every kept edge survives
    for v in keep:
        if g.has_vertex(v):
            expected = [u for u in g.neighbors(v) if u in set(keep)]
            assert sorted(sub.neighbors(v)) == sorted(expected)


# ---------------------------------------------------------------- subgraph split

@given(small_edge_lists, st.sets(st.integers(0, 14), max_size=6))
def test_subgraph_split_partitions_nodes(edges, extra_nodes):
    s = Subgraph()
    for u, v in edges:
        if u != v:
            s.add_edge(u, v)
    s.add_nodes(extra_nodes)
    parts = s.split()
    seen = []
    for p in parts:
        seen.extend(p.nodes())
    assert sorted(seen) == sorted(s.nodes())
    total_edges = sum(p.num_edges for p in parts)
    assert total_edges == s.num_edges


# ---------------------------------------------------------------- LSH

@given(st.sets(st.integers(0, 10**6), max_size=50))
def test_lsh_signature_stable_and_sized(ids):
    lsh = MinHashLSH(6, seed=9)
    sig = lsh.signature(ids)
    assert len(sig) == 6
    assert sig == lsh.signature(sorted(ids))


@given(
    st.sets(st.integers(0, 1000), min_size=1, max_size=40),
    st.sets(st.integers(0, 1000), min_size=1, max_size=40),
)
def test_lsh_identical_iff_full_similarity(a, b):
    lsh = MinHashLSH(8, seed=1)
    sim = MinHashLSH.similarity(lsh.signature(a), lsh.signature(b))
    if a == b:
        assert sim == 1.0
    assert 0.0 <= sim <= 1.0


# ---------------------------------------------------------------- RCV cache

@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "lookup", "addref", "release"]),
            st.integers(0, 12),
        ),
        max_size=200,
    ),
    st.sampled_from(list(CachePolicy)),
)
def test_cache_never_exceeds_capacity(ops, policy):
    capacity = 5 * VertexData(vid=0, neighbors=(1, 2, 3)).estimate_size()
    cache = RCVCache(capacity_bytes=capacity, policy=policy)
    for op, vid in ops:
        if op == "insert":
            cache.insert(VertexData(vid=vid, neighbors=(1, 2, 3)), refs=vid % 3)
        elif op == "lookup":
            cache.lookup(vid)
        elif op == "addref" and vid in cache:
            cache.addref(vid)
        elif op == "release":
            cache.release(vid)
        assert cache.used_bytes <= capacity
        # used == sum of entry sizes, refcounts >= 0, zero-ref index sound
        assert cache.audit() == []


@given(st.lists(st.integers(0, 20), min_size=1, max_size=60))
def test_rcv_cache_referenced_survive(vids):
    """Under the RCV policy a referenced vertex is never evicted."""
    size = VertexData(vid=0, neighbors=(1,)).estimate_size()
    cache = RCVCache(capacity_bytes=4 * size, policy=CachePolicy.RCV)
    pinned = VertexData(vid=999, neighbors=(1,))
    assert cache.insert(pinned, refs=1)
    for vid in vids:
        cache.insert(VertexData(vid=vid, neighbors=(1,)), refs=0)
        assert 999 in cache


# ---------------------------------------------------------------- partitioners

@given(edge_lists, st.integers(1, 6), st.sampled_from(["hash", "bdg"]))
def test_partitioners_total_and_in_range(edges, k, which):
    g = Graph.from_edges(edges)
    if g.num_vertices == 0:
        return
    partitioner = HashPartitioner() if which == "hash" else BDGPartitioner(seed=3)
    assignment = partitioner.partition(g, k)
    assignment.validate_complete(g)
    assert all(0 <= w < k for w in assignment.owner.values())


# ---------------------------------------------------------------- kernels

@given(edge_lists)
def test_triangle_kernel_matches_oracle(edges):
    g = Graph.from_edges(edges)
    adj = {v: g.neighbors(v) for v in g.vertices()}
    assert triangle_count_sequential(adj, WorkMeter()) == triangle_count_exact(g)


@given(small_edge_lists)
def test_max_clique_matches_bron_kerbosch(edges):
    g = Graph.from_edges(edges)
    if g.num_vertices == 0:
        return
    adj = {v: g.neighbors(v) for v in g.vertices()}
    best = max_clique_sequential(adj, WorkMeter())
    all_maximal = maximal_cliques(adj, WorkMeter())
    oracle = max((len(c) for c in all_maximal), default=0)
    assert len(best) == oracle


@given(small_edge_lists)
def test_shared_bound_only_improves(edges):
    g = Graph.from_edges(edges)
    adj = {v: g.neighbors(v) for v in g.vertices()}
    bound = SharedBound()
    values = []
    for v in sorted(adj):
        max_clique_sequential({v: adj[v], **adj}, WorkMeter(), bound=bound)
        values.append(bound.value)
    assert values == sorted(values)


# ---------------------------------------------------------------- graphlets

@given(small_edge_lists)
def test_graphlet_k3_consistent_with_triangles(edges):
    from repro.mining.graphlets import graphlet_count_sequential

    g = Graph.from_edges(edges)
    adj = {v: g.neighbors(v) for v in g.vertices()}
    histogram = graphlet_count_sequential(3, adj, WorkMeter())
    assert histogram.get("triangle", 0) == triangle_count_exact(g)
    # wedges + triangles = all connected 3-sets; each is one of the two
    assert set(histogram) <= {"path3", "triangle"}


@given(small_edge_lists)
def test_graphlet_k2_counts_edges(edges):
    from repro.mining.graphlets import graphlet_count_sequential

    g = Graph.from_edges(edges)
    adj = {v: g.neighbors(v) for v in g.vertices()}
    histogram = graphlet_count_sequential(2, adj, WorkMeter(), classify=False)
    assert histogram.get("total", 0) == g.num_edges


# ---------------------------------------------------------------- similarity

@given(
    st.lists(st.integers(0, 30), max_size=8),
    st.lists(st.integers(0, 30), max_size=8),
)
def test_weighted_similarity_bounded(a, b):
    from repro.graph.attributes import weighted_similarity

    weights = {i: 0.1 for i in range(0, 30, 3)}
    sim = weighted_similarity(a, b, weights)
    assert 0.0 <= sim <= 1.0
    # symmetry
    assert sim == weighted_similarity(b, a, weights)


# ---------------------------------------------------------------- store order

@given(st.lists(st.sets(st.integers(0, 40), min_size=1, max_size=6), max_size=30))
def test_task_store_conserves_tasks(pull_sets):
    from repro.core.lsh import MinHashLSH
    from repro.core.task import Task
    from repro.core.task_store import TaskStore
    from repro.graph.graph import VertexData
    from repro.sim.disk import Disk
    from repro.sim.engine import Simulator

    class T(Task):
        def __init__(self, pulls):
            super().__init__(VertexData(vid=0, neighbors=()))
            self.pull(pulls)

        def update(self, cand_objs, env):
            self.finish()

    sim = Simulator()
    disk = Disk(sim, 0, read_bandwidth=1e12, write_bandwidth=1e12, latency=1e-9)
    store = TaskStore(disk, block_tasks=4, lsh=MinHashLSH(4))
    tasks = [T(p) for p in pull_sets]
    store.insert_batch(tasks)
    popped = []

    def drain():
        while (t := store.pop()) is not None:
            popped.append(t)

    store._notify = drain
    drain()
    sim.run()
    assert {t.task_id for t in popped} == {t.task_id for t in tasks}
