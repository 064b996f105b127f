"""Unit tests for the focused-clustering (FocusCO-style) kernel."""

import pytest

from repro.graph.attributes import infer_attribute_weights
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.mining.clustering import (
    DONE,
    NEED,
    FocusedClusterGrower,
    FocusParams,
    extract_focused_cluster,
    focused_clustering_sequential,
)
from repro.mining.cost import WorkMeter
from tests.conftest import adjacency_of, attributes_of


@pytest.fixture
def focus_graph():
    """Two 5-cliques with distinct attributes, joined by a bridge."""
    edges = []
    for base in (0, 5):
        vs = range(base, base + 5)
        edges += [(i, j) for i in vs for j in vs if i < j]
    edges.append((4, 5))
    g = Graph.from_edges(edges)
    for v in range(5):
        g.set_attributes(v, [1, 2])
    for v in range(5, 10):
        g.set_attributes(v, [8, 9])
    return g


PARAMS = FocusParams(min_edge_weight=0.3, min_size=3, max_size=10)


class TestExtract:
    def test_cluster_follows_focus_attributes(self, focus_graph):
        weights = infer_attribute_weights([[1, 2], [1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        cluster = extract_focused_cluster(0, PARAMS, attrs, adj, weights, WorkMeter())
        assert cluster == (0, 1, 2, 3, 4)

    def test_unfocused_region_yields_nothing(self, focus_graph):
        """Seeds in the region whose attributes carry no focus weight
        produce no cluster — FocusCO only surfaces what matches the
        exemplars."""
        weights = infer_attribute_weights([[1, 2], [1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        assert (
            extract_focused_cluster(5, PARAMS, attrs, adj, weights, WorkMeter())
            is None
        )

    def test_min_vid_reporting(self, focus_graph):
        weights = infer_attribute_weights([[1, 2], [1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        assert (
            extract_focused_cluster(2, PARAMS, attrs, adj, weights, WorkMeter())
            is None
        )

    def test_empty_weights_find_nothing(self, focus_graph):
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        assert (
            extract_focused_cluster(0, PARAMS, attrs, adj, {}, WorkMeter()) is None
        )


class TestStepperProtocol:
    def test_need_lists_frontier(self, focus_graph):
        weights = infer_attribute_weights([[1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        grower = FocusedClusterGrower(0, adj[0], attrs[0], PARAMS, weights)
        status, payload = grower.advance({}, WorkMeter())
        assert status == NEED
        assert set(payload) == set(adj[0])

    def test_convergence_matches_wrapper(self, focus_graph):
        weights = infer_attribute_weights([[1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        expected = extract_focused_cluster(
            0, PARAMS, attrs, adj, weights, WorkMeter()
        )
        grower = FocusedClusterGrower(0, adj[0], attrs[0], PARAMS, weights)
        supplied = {v: (adj[v], attrs[v]) for v in adj}
        status, payload = grower.advance(supplied, WorkMeter())
        assert (status, payload) == (DONE, expected)

    def test_member_data_tracks_members(self, focus_graph):
        weights = infer_attribute_weights([[1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        grower = FocusedClusterGrower(0, adj[0], attrs[0], PARAMS, weights)
        supplied = {v: (adj[v], attrs[v]) for v in adj}
        grower.advance(supplied, WorkMeter())
        assert set(grower.member_data) == grower.members

    def test_iteration_cap_terminates(self, focus_graph):
        weights = infer_attribute_weights([[1, 2]])
        adj = adjacency_of(focus_graph)
        attrs = attributes_of(focus_graph)
        params = FocusParams(max_iterations=1, min_size=1)
        grower = FocusedClusterGrower(0, adj[0], attrs[0], params, weights)
        supplied = {v: (adj[v], attrs[v]) for v in adj}
        status, _ = grower.advance(supplied, WorkMeter())
        assert status == DONE
        assert grower.iterations == 1


class TestRunningSizeEstimate:
    def test_estimate_size_is_the_resummed_formula_after_every_step(
        self, monkeypatch
    ):
        """``estimate_size`` keeps a running total instead of re-summing
        ``member_data``; it must stay the same integer through every
        admission and every ``_expel``."""
        built = load_dataset("dblp-s")
        g = built.graph
        adj, attrs = adjacency_of(g), attributes_of(g)
        target = min(built.community_map.values())
        exemplars = sorted(v for v, c in built.community_map.items() if c == target)
        weights = infer_attribute_weights([attrs[e] for e in exemplars[:5]])

        def resummed(grower):
            return (
                64
                + 16 * len(grower.incident)
                + sum(
                    16 + 8 * len(ns) + 8 * len(at)
                    for ns, at in grower.member_data.values()
                )
            )

        expelled = []
        real_expel = FocusedClusterGrower._expel

        def checked_expel(grower, v, candidate_data, meter):
            real_expel(grower, v, candidate_data, meter)
            expelled.append(v)
            assert grower.estimate_size() == resummed(grower)

        monkeypatch.setattr(FocusedClusterGrower, "_expel", checked_expel)
        admitted = 0
        for seed in range(0, 30):
            grower = FocusedClusterGrower(
                seed, adj[seed], attrs[seed], FocusParams(), weights
            )
            assert grower.estimate_size() == resummed(grower)
            supplied = {}
            while True:
                status, payload = grower.advance(supplied, WorkMeter())
                assert grower.estimate_size() == resummed(grower)
                if status == DONE:
                    break
                for v in payload:
                    supplied.setdefault(v, (adj[v], attrs[v]))
            admitted += len(grower.members) - 1
        assert admitted and expelled


class TestSequential:
    def test_planted_dataset_recovers_focus_community(self):
        built = load_dataset("dblp-s")
        g = built.graph
        adj = adjacency_of(g)
        attrs = attributes_of(g)
        target = min(built.community_map.values())
        exemplars = sorted(
            v for v, c in built.community_map.items() if c == target
        )[:5]
        clusters = focused_clustering_sequential(
            exemplars, FocusParams(), attrs, adj, WorkMeter()
        )
        assert clusters
        # the exemplar community itself should be among the clusters
        exemplar_set = set(
            v for v, c in built.community_map.items() if c == target
        )
        overlaps = [len(set(c) & exemplar_set) / len(c) for c in clusters]
        assert max(overlaps) > 0.7

    def test_no_duplicate_clusters(self):
        built = load_dataset("dblp-s")
        g = built.graph
        exemplars = sorted(g.vertices())[:5]
        clusters = focused_clustering_sequential(
            exemplars,
            FocusParams(),
            attributes_of(g),
            adjacency_of(g),
            WorkMeter(),
        )
        assert len(clusters) == len(set(clusters))
