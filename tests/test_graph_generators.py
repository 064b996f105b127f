"""Unit tests for the synthetic graph generators."""

import hashlib

import pytest

from repro.graph.attributes import AttributeSpace
from repro.graph.generators import (
    planted_partition_graph,
    preferential_attachment_graph,
    random_attributes,
    random_labels,
    rmat_graph,
)
from repro.graph.algorithms import triangle_count_exact


class TestPreferentialAttachment:
    def test_deterministic(self):
        a = preferential_attachment_graph(50, 3, seed=1)
        b = preferential_attachment_graph(50, 3, seed=1)
        assert {v: a.neighbors(v) for v in a.vertices()} == {
            v: b.neighbors(v) for v in b.vertices()
        }

    def test_seed_changes_graph(self):
        a = preferential_attachment_graph(50, 3, seed=1)
        b = preferential_attachment_graph(50, 3, seed=2)
        assert {v: a.neighbors(v) for v in a.vertices()} != {
            v: b.neighbors(v) for v in b.vertices()
        }

    def test_vertex_count(self):
        g = preferential_attachment_graph(100, 4, seed=0)
        assert g.num_vertices == 100

    def test_average_degree_near_2m(self):
        g = preferential_attachment_graph(300, 5, seed=0)
        assert g.avg_degree() == pytest.approx(10, rel=0.25)

    def test_triangle_closure_increases_clustering(self):
        lo = preferential_attachment_graph(300, 5, triangle_prob=0.0, seed=7)
        hi = preferential_attachment_graph(300, 5, triangle_prob=0.9, seed=7)
        assert triangle_count_exact(hi) > triangle_count_exact(lo)

    def test_max_degree_cap_respected(self):
        g = preferential_attachment_graph(400, 6, seed=3, max_degree=25)
        assert g.max_degree() <= 25

    def test_degree_skew_exists(self):
        g = preferential_attachment_graph(500, 4, seed=0)
        assert g.max_degree() > 3 * g.avg_degree()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(0, 1)
        with pytest.raises(ValueError):
            preferential_attachment_graph(10, 0)

    @pytest.mark.parametrize(
        "params, digest",
        [
            # native-tc-dense's input shape
            (dict(n=1200, m=120, seed=7),
             "57ff11a0fd8f0bb876bcb7e8038c7a7d97b2220c746fd04988d822b929b21aea"),
            # the orkut-s recipe at 1200 vertices (hub cap)
            (dict(n=1200, m=25, triangle_prob=0.6, max_degree=120, seed=0),
             "e408dac97a0635b0dba49af15ac66637bf13003e43e3fa155cf391837b9ef216"),
            (dict(n=400, m=6, seed=3, max_degree=25),
             "1042491a80ebbd01b56e25ccf7d802f9af57a8ff735aca3e63852d2bab61dc10"),
            (dict(n=300, m=5, triangle_prob=0.9, seed=7),
             "18bf40b9c49cc2675c456b42538df4d78a6009124a93512e7e9d2c03b9c72474"),
            (dict(n=500, m=4, triangle_prob=0.0, seed=0),
             "f159fb423a8efaae2e9e57624f0b1a7f0a60f9ae6838006fb8d74f44e1687280"),
            (dict(n=220, m=110, seed=0),
             "b630813fac9542366a2b5b1db874528ca32fc1b0aeed49ab45d47266aada20d3"),
            # n <= m + 1: the seed ring is the whole graph
            (dict(n=5, m=8, seed=2),
             "4756af6d0bda54f5894b3503168928a9f30527f7803f795f4c237d1e81f7b225"),
            (dict(n=4, m=3, seed=1),
             "d9eb9867b9b09d225984fff14f345a9af064180d3ab6f954fa013d6c8303f3a0"),
            (dict(n=1, m=1, seed=0),
             "5578a44007e3068dbfa7e9b12b3945764ebf2160b21e7360a47ecfa3dc4133fa"),
        ],
    )
    def test_adjacency_digest_pinned(self, params, digest):
        """The generator's graphs stay byte-identical: every dataset,
        golden and benchmark input is built from them."""
        g = preferential_attachment_graph(**params)
        h = hashlib.sha256()
        for v in g.vertices():
            h.update(f"{v}:{','.join(map(str, g.neighbors(v)))};".encode())
        assert h.hexdigest() == digest


class TestRMAT:
    def test_deterministic(self):
        a = rmat_graph(scale=8, edge_factor=4, seed=5)
        b = rmat_graph(scale=8, edge_factor=4, seed=5)
        assert a.num_edges == b.num_edges

    def test_hub_skew(self):
        g = rmat_graph(scale=9, edge_factor=8, seed=1)
        assert g.max_degree() > 5 * g.avg_degree()

    def test_degree_cap(self):
        g = rmat_graph(scale=9, edge_factor=8, seed=1, max_degree=20)
        assert g.max_degree() <= 20

    def test_no_self_loops(self):
        g = rmat_graph(scale=6, edge_factor=4, seed=2)
        for v in g.vertices():
            assert v not in g.neighbors(v)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=0)
        with pytest.raises(ValueError):
            rmat_graph(scale=4, a=0.5, b=0.4, c=0.3)


class TestPlantedPartition:
    def test_membership_map_complete(self):
        g, members = planted_partition_graph(4, 10, seed=0)
        assert g.num_vertices == 40
        assert set(members) == set(range(40))
        assert set(members.values()) == {0, 1, 2, 3}

    def test_communities_denser_inside(self):
        g, members = planted_partition_graph(4, 20, p_in=0.5, p_out=0.01, seed=1)
        inside = outside = 0
        for v in g.vertices():
            for u in g.neighbors(v):
                if u > v:
                    if members[u] == members[v]:
                        inside += 1
                    else:
                        outside += 1
        assert inside > outside

    def test_deterministic(self):
        g1, _ = planted_partition_graph(3, 10, seed=9)
        g2, _ = planted_partition_graph(3, 10, seed=9)
        assert g1.num_edges == g2.num_edges


class TestDecorators:
    def test_random_labels_cover_alphabet(self, small_social_graph):
        random_labels(small_social_graph, alphabet=("a", "b"), seed=0)
        seen = {small_social_graph.label(v) for v in small_social_graph.vertices()}
        assert seen == {"a", "b"}

    def test_random_labels_deterministic(self, small_social_graph):
        random_labels(small_social_graph, seed=4)
        first = {v: small_social_graph.label(v) for v in small_social_graph.vertices()}
        random_labels(small_social_graph, seed=4)
        second = {v: small_social_graph.label(v) for v in small_social_graph.vertices()}
        assert first == second

    def test_random_attributes_one_per_dimension(self, small_social_graph):
        space = AttributeSpace(dimensions=3, values_per_dimension=5)
        random_attributes(small_social_graph, space=space, seed=0)
        for v in small_social_graph.vertices():
            attrs = small_social_graph.attributes(v)
            assert len(attrs) == 3
            dims = sorted(space.decode(a)[0] for a in attrs)
            assert dims == [0, 1, 2]

    def test_community_coherent_attributes(self):
        g, members = planted_partition_graph(2, 20, seed=3)
        space = AttributeSpace()
        random_attributes(g, space=space, seed=3, community_map=members, coherence=1.0)
        # full coherence: every member of a community has identical attrs
        by_comm = {}
        for v in g.vertices():
            by_comm.setdefault(members[v], set()).add(g.attributes(v))
        for attr_sets in by_comm.values():
            assert len(attr_sets) == 1
