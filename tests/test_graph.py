"""Unit tests for the core Graph structure."""

import pickle

import pytest

from repro.graph.graph import Graph, VertexData


class TestConstruction:
    def test_from_edges_symmetrises(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)

    def test_self_loops_dropped(self):
        g = Graph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_dropped(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_isolated_vertices_preserved(self):
        g = Graph.from_edges([(0, 1)], vertices=[0, 1, 2])
        assert g.num_vertices == 3
        assert g.degree(2) == 0

    def test_from_adjacency(self):
        g = Graph.from_adjacency({0: [1, 2], 1: [0], 2: []})
        assert g.num_edges == 2
        assert g.has_edge(0, 2)  # symmetrised from 0's list


class TestAccessors:
    def test_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 7

    def test_neighbors_sorted(self, tiny_graph):
        assert tiny_graph.neighbors(1) == (0, 2, 3)

    def test_degree(self, tiny_graph):
        assert tiny_graph.degree(3) == 3
        assert tiny_graph.max_degree() == 3
        assert tiny_graph.avg_degree() == pytest.approx(14 / 6)

    def test_has_edge_binary_search(self, tiny_graph):
        assert tiny_graph.has_edge(3, 4)
        assert not tiny_graph.has_edge(0, 5)
        assert not tiny_graph.has_edge(99, 0)

    def test_missing_vertex_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.neighbors(42)

    def test_vertices_sorted(self, tiny_graph):
        assert list(tiny_graph.vertices()) == [0, 1, 2, 3, 4, 5]


class TestLabelsAndAttributes:
    def test_labels(self, tiny_graph):
        tiny_graph.set_label(0, "a")
        assert tiny_graph.label(0) == "a"
        assert tiny_graph.label(1) is None
        assert tiny_graph.is_labeled

    def test_label_on_missing_vertex_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            tiny_graph.set_label(42, "a")

    def test_attributes(self, tiny_graph):
        tiny_graph.set_attributes(0, [3, 1, 2])
        assert tiny_graph.attributes(0) == (3, 1, 2)
        assert tiny_graph.attributes(1) == ()
        assert tiny_graph.is_attributed

    def test_attribute_dimensions(self, tiny_graph):
        tiny_graph.set_attributes(0, [1, 2])
        tiny_graph.set_attributes(1, [2, 3])
        assert tiny_graph.attribute_dimensions() == 3


class TestVertexData:
    def test_packaging(self, tiny_graph):
        tiny_graph.set_label(1, "b")
        tiny_graph.set_attributes(1, [7])
        data = tiny_graph.vertex_data(1)
        assert data == VertexData(vid=1, neighbors=(0, 2, 3), label="b", attributes=(7,))
        assert data.degree == 3

    def test_size_estimate_grows_with_degree(self, tiny_graph):
        small = tiny_graph.vertex_data(5)
        big = tiny_graph.vertex_data(1)
        assert big.estimate_size() > small.estimate_size()

    def test_graph_size_is_sum(self, tiny_graph):
        total = sum(
            tiny_graph.vertex_data(v).estimate_size() for v in tiny_graph.vertices()
        )
        assert tiny_graph.estimate_size() == total


class TestTransformations:
    def test_subgraph_induced(self, tiny_graph):
        sub = tiny_graph.subgraph([0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 5  # both triangles, no tail
        assert not sub.has_vertex(4)

    def test_subgraph_keeps_labels(self, tiny_graph):
        tiny_graph.set_label(0, "z")
        sub = tiny_graph.subgraph([0, 1])
        assert sub.label(0) == "z"

    def test_relabeled_compacts_ids(self):
        g = Graph.from_edges([(10, 20), (20, 30)])
        out, mapping = g.relabeled()
        assert sorted(mapping.values()) == [0, 1, 2]
        assert out.num_edges == 2
        assert out.has_edge(mapping[10], mapping[20])

    def test_repr(self, tiny_graph):
        assert "|V|=6" in repr(tiny_graph)


class TestVertexDataMemo:
    def test_one_record_per_vertex(self, tiny_graph):
        assert tiny_graph.vertex_data(1) is tiny_graph.vertex_data(1)

    def test_label_change_after_a_read_is_visible(self, tiny_graph):
        assert tiny_graph.vertex_data(0).label is None
        tiny_graph.set_label(0, "a")
        assert tiny_graph.vertex_data(0).label == "a"

    def test_attribute_change_after_a_read_is_visible(self, tiny_graph):
        assert tiny_graph.vertex_data(0).attributes == ()
        tiny_graph.set_attributes(0, [3, 1])
        assert tiny_graph.vertex_data(0).attributes == (3, 1)

    def test_warm_graph_pickles_like_a_cold_one(self, small_social_graph):
        from repro.apps import TriangleCountingApp
        from repro.core import GMinerConfig, GMinerJob, JobStatus

        graph = small_social_graph
        cold = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        config = GMinerConfig(
            execution="native", native_workers=2, native_chunk_size=16
        )
        result = GMinerJob(TriangleCountingApp(), graph, config).run()
        assert result.status is JobStatus.OK
        assert result.native["workers"] == 2
        assert graph._vertex_data  # the job warmed the memo
        warm = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        assert warm == cold
        # a state without the memo (any pickle) loads into a working graph
        copy = pickle.loads(warm)
        assert "_vertex_data" not in copy.__getstate__()
        assert not hasattr(copy, "_adj_views")
        assert copy.vertex_data(3) == graph.vertex_data(3)

    #: sha256 of ``graph_payload(PA(60, 4, seed=7))`` in the format graphs
    #: have always pickled to: the spawn payload and
    #: ``native.payload_bytes`` must never move.
    PA_PAYLOAD_SHA256 = (
        "6003d5fdc028a40d9c4e5f94308c3f25396c37f97429a2b303343cb8259ff0f3"
    )

    def test_payload_bytes_are_pinned_cold_and_warm(self):
        import hashlib

        import repro
        from repro.core import GMinerConfig
        from repro.graph.generators import preferential_attachment_graph
        from repro.native import graph_payload

        graph = preferential_attachment_graph(n=60, m=4, seed=7)

        def digest() -> str:
            return hashlib.sha256(graph_payload(graph)).hexdigest()

        assert digest() == self.PA_PAYLOAD_SHA256
        config = GMinerConfig(
            execution="native", native_workers=2, native_chunk_size=8
        )
        for backend in ("bitset", "auto"):
            result = repro.mine(
                graph, pattern="tailed-triangle", config=config, backend=backend
            )
            assert result.native["workers"] == 2
        assert len(graph._vertex_data) == graph.num_vertices
        assert digest() == self.PA_PAYLOAD_SHA256

    def test_earlier_format_state_drops_its_view_cache(self, tiny_graph):
        """A graph pickled with a filled per-backend view cache (dataset
        pickles in an older build cache) loads without it."""
        state = {
            "_adj": dict(tiny_graph._adj),
            "_labels": {0: "a"},
            "_attrs": {1: (2, 5)},
            "_adj_views": {"reference": {0: (1, 2)}},
        }
        graph = Graph.__new__(Graph)
        graph.__setstate__(state)
        assert not hasattr(graph, "_adj_views")
        assert graph.vertex_data(0).label == "a"
        assert graph.vertex_data(1).attributes == (2, 5)
        assert graph.neighbors(2) == tiny_graph.neighbors(2)
        assert pickle.loads(pickle.dumps(graph)).__getstate__() == {
            **state, "_adj_views": {}
        }
