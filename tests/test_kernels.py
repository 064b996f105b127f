"""Tests for the set-operation kernel layer (:mod:`repro.kernels`).

Two layers of guarantees:

1. unit tests per backend: every operation returns sorted exact set
   results on hand-picked inputs (empty sides, disjoint, nested,
   skewed sizes that trip the galloping path);
2. hypothesis cross-backend properties: on random graphs, every
   available backend produces *identical mining results and identical
   work-unit totals* to the reference backend for all six mining
   kernels — the work-unit-invariance contract that keeps simulated
   times independent of the backend choice.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import reference
from repro.graph.graph import Graph
from repro.mining.cliques import max_clique_sequential, maximal_cliques
from repro.mining.community import CommunityParams, community_detection_sequential
from repro.mining.clustering import FocusParams, focused_clustering_sequential
from repro.mining.cost import WorkMeter
from repro.mining.graphlets import graphlet_count_sequential
from repro.mining.matching import graph_matching_sequential
from repro.mining.patterns import make_pattern
from repro.mining.triangles import triangle_count_sequential

settings.register_profile(
    "repro-kernels", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-kernels")

BACKENDS = kernels.available_backends()


# ------------------------------------------------------------ dispatch

def test_reference_backend_always_available():
    assert "reference" in BACKENDS
    assert "bitset" in BACKENDS


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        kernels.set_backend("sse4.2")


def test_use_backend_restores_previous():
    before = kernels.get_backend()
    with kernels.use_backend("reference"):
        assert kernels.get_backend() == "reference"
    assert kernels.get_backend() == before


def test_auto_resolves_to_available_backend():
    with kernels.use_backend("auto"):
        assert kernels.get_backend() in BACKENDS


# ------------------------------------------------------- per-op units

CASES = [
    ((), ()),
    ((1, 2, 3), ()),
    ((), (4, 5)),
    ((1, 2, 3), (1, 2, 3)),
    ((1, 3, 5), (2, 4, 6)),
    ((1, 2, 3, 4, 5), (3,)),
    ((2,), tuple(range(0, 200, 3))),  # skewed: galloping path
    (tuple(range(50)), tuple(range(25, 75))),
]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("a,b", CASES)
def test_ops_match_set_semantics(backend, a, b):
    sa, sb = set(a), set(b)
    with kernels.use_backend(backend):
        ia, ib = kernels.as_array(a), kernels.as_array(b)
        assert kernels.tolist(kernels.intersect(ia, ib)) == sorted(sa & sb)
        assert kernels.intersect_count(ia, ib) == len(sa & sb)
        assert kernels.tolist(kernels.union(ia, ib)) == sorted(sa | sb)
        probes = sorted(sa | sb | {-1, 1000})
        assert kernels.contains(ia, probes) == [p in sa for p in probes]


@pytest.mark.parametrize("backend", BACKENDS)
def test_as_array_normalises_unsorted_and_duplicates(backend):
    with kernels.use_backend(backend):
        arr = kernels.as_array([5, 1, 3, 1, 5])
        assert kernels.tolist(arr) == [1, 3, 5]
        assert len(arr) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_slice_gt(backend):
    with kernels.use_backend(backend):
        arr = kernels.as_array((1, 4, 7, 9))
        assert kernels.tolist(kernels.slice_gt(arr, 0)) == [1, 4, 7, 9]
        assert kernels.tolist(kernels.slice_gt(arr, 4)) == [7, 9]
        assert kernels.tolist(kernels.slice_gt(arr, 5)) == [7, 9]
        assert kernels.tolist(kernels.slice_gt(arr, 9)) == []


SLICE_LT_CASES = [
    ((), 3),  # empty
    ((1, 4, 7), 0),  # all above the pivot
    ((1, 4, 7), 100),  # all below
    ((1, 4, 7, 9), 7),  # pivot present
    ((1, 4, 7, 9), 8),  # pivot absent
    ((-5, -2, 0, 3), -2),  # negative ids, pivot present
    ((-5, -2, 0, 3), -3),  # negative ids, pivot absent
]


# the sketch backend answers exact slices too (it delegates to reference)
@pytest.mark.parametrize("backend", BACKENDS + ("sketch",))
@pytest.mark.parametrize("ids,x", SLICE_LT_CASES)
def test_slice_lt(backend, ids, x):
    with kernels.use_backend(backend):
        arr = kernels.as_array(ids)
        below = kernels.slice_lt(arr, x)
        assert kernels.tolist(below) == [v for v in ids if v < x]
        # mirror of slice_gt: the two slices and the pivot partition arr
        above = kernels.slice_gt(arr, x)
        assert len(below) + len(above) + (x in ids) == len(arr)


@pytest.mark.parametrize("backend", BACKENDS)
def test_intersect_count_many_matches_pairwise(backend):
    arrays = [(), (1, 2, 3), (0, 4, 8, 12), tuple(range(0, 40, 2))]
    thresholds = [0, 2, -1, 9]
    target = (1, 3, 4, 8, 10, 12, 14)
    with kernels.use_backend(backend):
        handles = [kernels.as_array(a) for a in arrays]
        it = kernels.as_array(target)
        expected = sum(
            kernels.intersect_count(
                kernels.slice_gt(h, t), kernels.slice_gt(it, t)
            )
            for h, t in zip(handles, thresholds)
        )
        # raw sequences and handles are both accepted
        for inputs in (handles, arrays):
            count, scanned = kernels.intersect_count_many(inputs, thresholds, it)
            assert count == expected
            assert scanned == sum(len(a) for a in arrays)


def test_reference_merge_and_gallop_agree():
    a = tuple(range(0, 100, 7))
    b = tuple(range(0, 1000, 3))
    ia, ib = reference.as_array(a), reference.as_array(b)
    merged = list(reference.merge_intersect(ia, ib))
    galloped = list(reference.galloping_intersect(ia, ib))
    assert merged == galloped == sorted(set(a) & set(b))


# -------------------------------------------- cross-backend invariance

edge_lists = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    min_size=0,
    max_size=120,
)


def _adjacency(edges):
    g = Graph.from_edges(edges)
    return {v: tuple(g.neighbors(v)) for v in g.vertices()}


def _attributes(adjacency):
    # deterministic synthetic attributes: small overlapping universes
    return {
        v: tuple(sorted({(v * 7 + i) % 13 for i in range(4)}))
        for v in adjacency
    }


def _labels(adjacency):
    return {v: "ab"[v % 2] for v in adjacency}


def _per_backend(fn):
    """Run ``fn(meter) -> result`` under every backend; assert all
    (result, units) pairs are identical; return the reference pair."""
    outcomes = {}
    for backend in BACKENDS:
        with kernels.use_backend(backend):
            meter = WorkMeter()
            outcomes[backend] = (fn(meter), meter.units)
    baseline = outcomes["reference"]
    for backend, outcome in outcomes.items():
        assert outcome == baseline, (
            f"backend {backend!r} diverged from reference: "
            f"{outcome} != {baseline}"
        )
    return baseline


@given(
    st.lists(st.integers(-20, 60), max_size=40),
    st.integers(-25, 65),
    st.integers(-25, 65),
)
def test_order_bound_slices_invariant_across_backends(values, lo, hi):
    """``slice_gt`` then ``slice_lt`` — a plan step's order bounds —
    yields the same open window (and a probe-able handle) everywhere."""
    expected = [v for v in sorted(set(values)) if lo < v < hi]
    for backend in BACKENDS + ("sketch",):
        with kernels.use_backend(backend):
            window = kernels.slice_lt(
                kernels.slice_gt(kernels.as_array(values), lo), hi
            )
            assert kernels.tolist(window) == expected, backend
            assert len(window) == len(expected), backend
            probes = [lo, hi, *expected[:2]]
            assert list(kernels.contains(window, probes)) == [
                p in expected for p in probes
            ], backend


@given(edge_lists)
def test_triangles_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    _per_backend(lambda m: triangle_count_sequential(adjacency, m))


@given(edge_lists)
def test_max_clique_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    count, units = _per_backend(
        lambda m: max_clique_sequential(adjacency, m)
    )
    if adjacency:
        oracle = maximal_cliques(adjacency, WorkMeter())
        assert len(count) == max(len(c) for c in oracle)


@given(edge_lists)
def test_graphlets_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    _per_backend(lambda m: graphlet_count_sequential(3, adjacency, m))


@given(edge_lists)
def test_matching_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    labels = _labels(adjacency)
    pattern = make_pattern("a", [("b", 0), ("a", 0)], [("b", 1)])
    _per_backend(
        lambda m: graph_matching_sequential(pattern, labels, adjacency, m)
    )


@given(edge_lists)
def test_community_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    attributes = _attributes(adjacency)
    params = CommunityParams(tau=0.2, gamma=0.4, min_size=3, max_size=16)
    _per_backend(
        lambda m: community_detection_sequential(
            params, attributes, adjacency, m
        )
    )


@given(edge_lists)
def test_clustering_invariant_across_backends(edges):
    adjacency = _adjacency(edges)
    attributes = _attributes(adjacency)
    exemplars = sorted(adjacency)[:3]
    params = FocusParams(min_size=3, max_size=16, max_iterations=8)
    _per_backend(
        lambda m: focused_clustering_sequential(
            exemplars, params, attributes, adjacency, m
        )
    )
