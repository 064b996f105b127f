"""Golden mining results on the registered datasets.

These pin the exact outputs of every workload on the (seeded,
deterministic) dataset registry.  Any change to a generator, a kernel,
or the pipeline that alters a mining *result* — as opposed to its
performance — trips one of these immediately, and the values are the
ones EXPERIMENTS.md quotes.

To refresh after an intentional result change::

    PYTHONPATH=src python tests/regen_golden.py
"""

import pytest

from repro import mine
from repro.bench.runner import prepare_dataset, run
from repro.core import GMinerConfig
from repro.graph.generators import preferential_attachment_graph
from repro.mining.cost import WorkMeter
from repro.mining.graphlets import graphlet_count_sequential
from repro.sim.cluster import ClusterSpec
from tests.regen_golden import group_digest, obs_gauges

pytestmark = pytest.mark.golden

SPEC = ClusterSpec(num_nodes=4, cores_per_node=4)

#: dataset -> (triangles, max clique size, Figure-1-pattern matches)
GOLDEN_NON_ATTRIBUTED = {
    "skitter-s": (5378, 7, 1570),
    "orkut-s": (86835, 12, 47935),
    "btc-s": (9017, 5, 3992),
    "friendster-s": (98668, 13, 92289),
}

#: dataset -> number of communities (native attributes, default params)
GOLDEN_COMMUNITIES = {
    "dblp-s": 60,
    "tencent-s": 70,
}


@pytest.mark.parametrize("dataset", sorted(GOLDEN_NON_ATTRIBUTED))
def test_triangle_counts(dataset):
    expected, _, _ = GOLDEN_NON_ATTRIBUTED[dataset]
    result = run(workload="tc", dataset=dataset, spec=SPEC, time_limit=None)
    assert result.ok
    assert result.value == expected


@pytest.mark.parametrize("dataset", sorted(GOLDEN_NON_ATTRIBUTED))
def test_max_clique_sizes(dataset):
    _, expected, _ = GOLDEN_NON_ATTRIBUTED[dataset]
    result = run(workload="mcf", dataset=dataset, spec=SPEC, time_limit=None)
    assert result.ok
    assert len(result.value) == expected
    assert result.aggregated == expected


@pytest.mark.parametrize("dataset", sorted(GOLDEN_NON_ATTRIBUTED))
def test_pattern_match_counts(dataset):
    _, _, expected = GOLDEN_NON_ATTRIBUTED[dataset]
    result = run(workload="gm", dataset=dataset, spec=SPEC, time_limit=None)
    assert result.ok
    assert result.value == expected


#: workload/dataset -> digest of the exact community/cluster membership
#: (canonicalised by ``regen_golden.group_digest``).  Unlike the count
#: above, these trip on any change to *which vertices* end up grouped
#: together, not just how many groups exist.
GOLDEN_GROUP_DIGESTS = {
    "cd/dblp-s": "fb2daacc036ef107",
    "cd/tencent-s": "4a43e03aece82584",
    "gc/dblp-s": "d9d3a1ff604d94db",
    "gc/tencent-s": "d475dff4bdad0b39",
}


@pytest.mark.parametrize("dataset", sorted(GOLDEN_COMMUNITIES))
def test_community_counts(dataset):
    result = run(workload="cd", dataset=dataset, spec=SPEC, time_limit=None)
    assert result.ok
    assert len(result.value) == GOLDEN_COMMUNITIES[dataset]


@pytest.mark.parametrize("key", sorted(GOLDEN_GROUP_DIGESTS))
def test_group_memberships_exact(key):
    workload, dataset = key.split("/")
    result = run(workload=workload, dataset=dataset, spec=SPEC, time_limit=None)
    assert result.ok
    assert group_digest(result.value) == GOLDEN_GROUP_DIGESTS[key]


#: workload/dataset -> exact work units of the single-thread baseline.
#: These pin the *cost model*, not just the results: simulated seconds
#: are work units divided by core speed, so any kernel change that
#: alters a total silently shifts every reported time.  The values were
#: captured from the per-probe-charging implementation; the vectorised
#: kernels must reproduce them exactly (the work-unit-invariance
#: contract in DESIGN.md).
WORK_UNIT_PINS = {
    "tc/skitter-s": 110575.0,
    "tc/orkut-s": 2398340.0,
    "tc/btc-s": 532306.0,
    "tc/friendster-s": 3352784.0,
    "mcf/skitter-s": 26708.0,
    "mcf/btc-s": 199366.0,
    "gm/skitter-s": 25471.0,
    "gm/btc-s": 87578.0,
    "cd/dblp-s": 3837723.0,
    "cd/tencent-s": 15308973.0,
    "gc/dblp-s": 1311696.0,
}


@pytest.mark.parametrize("key", sorted(WORK_UNIT_PINS))
def test_work_unit_pins(key):
    workload, dataset = key.split("/")
    result = run(system="single-thread", workload=workload, dataset=dataset)
    assert result.stats["work_units"] == WORK_UNIT_PINS[key]


#: workload -> ``regen_golden.OBS_GAUGES`` (makespan, messages, network
#: bytes, tasks created, work units) of an observed run on skitter-s.
#: The archived paper artefacts (``results/*.json``) carry every other
#: simulated quantity per cell; the message count is in no
#: ``JobResult.to_dict()``, so it is pinned here.
OBS_GAUGE_PINS = {
    "tc": (0.13422579999999998, 791.0, 256792.0, 323.0, 108658.0),
    "mcf": (0.12891939999999996, 855.0, 258696.0, 463.0, 61223.0),
    "gm": (0.19993249999999996, 344.0, 205312.0, 49.0, 26221.0),
}


@pytest.mark.parametrize("workload", sorted(OBS_GAUGE_PINS))
def test_obs_gauge_pins(workload):
    assert obs_gauges(workload) == OBS_GAUGE_PINS[workload]


def test_graphlet_work_unit_pin():
    built = prepare_dataset("skitter-s", "gl")
    adjacency = {
        v: tuple(built.graph.neighbors(v)) for v in built.graph.vertices()
    }
    meter = WorkMeter()
    histogram = graphlet_count_sequential(3, adjacency, meter)
    assert meter.units == 8412916.0
    assert histogram == {"path3": 117329, "triangle": 5378}


def test_plan_bench_recipe_pin():
    """The ``native-plan-tailed`` benchmark input (benchmarks/e2e): the
    compiled tailed-triangle plan's value and native work-unit total
    (per-partial ``scanned + len(cands)`` charges plus the seed scan).
    The plan executor may share or fuse the set work; it may not move
    either number."""
    graph = preferential_attachment_graph(200, 20, seed=7, max_degree=60)
    result = mine(
        graph,
        pattern="tailed-triangle",
        execution="native",
        backend="bitset",
        config=GMinerConfig(native_workers=1),
    )
    assert result.ok
    assert result.value == 1780402
    assert result.stats["work_units"] == 4371841.0
