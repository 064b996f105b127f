"""Unit tests for the community-detection kernel."""

import pytest

from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.mining import community as community_mod
from repro.mining.community import (
    DONE,
    NEED,
    CommunityGrower,
    CommunityParams,
    community_detection_sequential,
    grow_community,
)
from repro.mining.cost import WorkMeter
from tests.conftest import adjacency_of, attributes_of


@pytest.fixture
def two_cliques_graph():
    """Two 4-cliques joined by one edge; attrs coherent per clique."""
    edges = []
    for base in (0, 4):
        vs = range(base, base + 4)
        edges += [(i, j) for i in vs for j in vs if i < j]
    edges.append((3, 4))
    g = Graph.from_edges(edges)
    for v in range(4):
        g.set_attributes(v, [1, 2, 3])
    for v in range(4, 8):
        g.set_attributes(v, [7, 8, 9])
    return g


PARAMS = CommunityParams(tau=0.5, gamma=0.5, min_size=3, max_size=10)


class TestGrower:
    def test_finds_clique_community(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        community = grow_community(0, PARAMS, attrs, adj, WorkMeter())
        assert community == (0, 1, 2, 3)

    def test_attribute_filter_blocks_other_clique(self, two_cliques_graph):
        """Vertex 4 is topologically adjacent to 3 but attribute-
        dissimilar, so 3's community never crosses the bridge."""
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        community = grow_community(4, PARAMS, attrs, adj, WorkMeter())
        assert community == (4, 5, 6, 7)

    def test_min_vid_reporting(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        # seed 1 grows the same community but is not its minimum
        assert grow_community(1, PARAMS, attrs, adj, WorkMeter()) is None

    def test_min_size_enforced(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        params = CommunityParams(tau=0.5, gamma=0.5, min_size=6, max_size=10)
        assert grow_community(0, params, attrs, adj, WorkMeter()) is None

    def test_density_threshold_stops_growth(self):
        # a triangle with a pendant: admitting the pendant would drop
        # density below gamma
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        for v in g.vertices():
            g.set_attributes(v, [1])
        params = CommunityParams(tau=0.1, gamma=0.9, min_size=3, max_size=10)
        community = grow_community(
            0, params, attributes_of(g), adjacency_of(g), WorkMeter()
        )
        assert community == (0, 1, 2)

    def test_max_size_cap(self):
        k8 = Graph.from_edges([(i, j) for i in range(8) for j in range(i + 1, 8)])
        for v in k8.vertices():
            k8.set_attributes(v, [1])
        params = CommunityParams(tau=0.1, gamma=0.5, min_size=2, max_size=5)
        community = grow_community(
            0, params, attributes_of(k8), adjacency_of(k8), WorkMeter()
        )
        assert len(community) == 5


class TestStepperProtocol:
    def test_need_then_done(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        grower = CommunityGrower(0, adj[0], attrs[0], PARAMS)
        status, payload = grower.advance({}, WorkMeter())
        assert status == NEED
        assert payload == sorted(grower.needed())
        supplied = {v: (adj[v], attrs[v]) for v in payload}
        # keep answering needs until done
        for _ in range(20):
            status, payload = grower.advance(supplied, WorkMeter())
            if status == DONE:
                break
            for v in payload:
                supplied[v] = (adj[v], attrs[v])
        assert status == DONE
        assert payload == (0, 1, 2, 3)

    def test_advance_after_done_is_stable(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        result = grow_community(0, PARAMS, attrs, adj, WorkMeter())
        grower = CommunityGrower(0, adj[0], attrs[0], PARAMS)
        supplied = {v: (adj[v], attrs[v]) for v in adj}
        status, payload = grower.advance(supplied, WorkMeter())
        assert (status, payload) == (DONE, result)
        assert grower.advance({}, WorkMeter()) == (DONE, result)

    def test_persistent_state_is_members_only(self, two_cliques_graph):
        """Task-model contract: the grower must not retain frontier
        data (that lives in the RCV cache)."""
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        grower = CommunityGrower(0, adj[0], attrs[0], PARAMS)
        supplied = {v: (adj[v], attrs[v]) for v in adj}
        while grower.advance(supplied, WorkMeter())[0] != DONE:
            pass
        assert set(grower.member_data) == grower.community

    def test_size_estimate_positive(self, two_cliques_graph):
        adj = adjacency_of(two_cliques_graph)
        attrs = attributes_of(two_cliques_graph)
        grower = CommunityGrower(0, adj[0], attrs[0], PARAMS)
        assert grower.estimate_size() > 0


def _resummed_size(grower):
    """``estimate_size`` as it was computed before the running total."""
    return (
        64
        + 16 * len(grower.links)
        + sum(16 + 8 * len(ns) + 8 * len(at) for ns, at in grower.member_data.values())
    )


def _drive(grower, adj, attrs, after_step=lambda: None):
    """Feed a grower from the whole graph; the trace of every step."""
    meter = WorkMeter()
    supplied = {}
    trace = []
    while True:
        status, payload = grower.advance(supplied, meter)
        trace.append((status, payload, meter.units))
        after_step()
        if status == DONE:
            return trace
        for v in payload:
            supplied.setdefault(v, (adj[v], attrs[v]))


class _Forgetful(dict):
    """A verdict memo that never remembers: the pre-memo behaviour."""

    def __setitem__(self, key, value):
        pass


class TestHostSideState:
    """The verdict memo and the running size total are invisible to
    the simulation: same values, same charges, same estimate."""

    SEEDS = range(0, 1000, 37)

    def test_verdict_memo_leaves_value_and_units_unchanged(self, monkeypatch):
        g = load_dataset("dblp-s").graph
        adj, attrs = adjacency_of(g), attributes_of(g)
        calls = []
        real = community_mod.jaccard_similarity
        monkeypatch.setattr(
            community_mod,
            "jaccard_similarity",
            lambda a, b: calls.append(1) or real(a, b),
        )
        evaluated = {}
        for forgetful in (False, True):
            traces = []
            for seed in self.SEEDS:
                grower = CommunityGrower(seed, adj[seed], attrs[seed], CommunityParams())
                if forgetful:
                    grower._similar = _Forgetful()
                traces.append(_drive(grower, adj, attrs))
            evaluated[forgetful] = (traces, len(calls))
            calls.clear()
        assert evaluated[False][0] == evaluated[True][0]
        # the memo did something: several rounds re-ask about a candidate
        assert evaluated[False][1] < evaluated[True][1]
        assert any(trace[-1][1] is not None for trace in evaluated[False][0])

    def test_estimate_size_is_the_resummed_formula_after_every_step(self):
        g = load_dataset("dblp-s").graph
        adj, attrs = adjacency_of(g), attributes_of(g)
        grew = 0
        for seed in self.SEEDS:
            grower = CommunityGrower(seed, adj[seed], attrs[seed], CommunityParams())
            assert grower.estimate_size() == _resummed_size(grower)

            def check():
                assert grower.estimate_size() == _resummed_size(grower)

            _drive(grower, adj, attrs, after_step=check)
            grew += len(grower.community) > 1
        assert grew


class TestSequential:
    def test_partition_recovery_on_planted_dataset(self):
        built = load_dataset("dblp-s")
        g = built.graph
        communities = community_detection_sequential(
            CommunityParams(), attributes_of(g), adjacency_of(g), WorkMeter()
        )
        assert communities  # finds structure
        # every reported community is attribute-coherent wrt its seed:
        # spot-check homogeneity against the planted ground truth
        hits = 0
        for community in communities:
            planted = {built.community_map[v] for v in community}
            if len(planted) == 1:
                hits += 1
        assert hits / len(communities) > 0.8

    def test_no_duplicates(self):
        built = load_dataset("dblp-s")
        g = built.graph
        communities = community_detection_sequential(
            CommunityParams(), attributes_of(g), adjacency_of(g), WorkMeter()
        )
        assert len(communities) == len(set(communities))
