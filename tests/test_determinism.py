"""Determinism: identical configuration must give bit-identical runs.

The whole reproduction strategy rests on the simulator being
deterministic — seeded datasets, FIFO tie-breaking in the event heap,
no wall-clock anywhere.  These tests pin that property at every level.
"""

import pytest

from repro.apps import GraphMatchingApp, MaxCliqueApp, TriangleCountingApp
from repro.bench.runner import run
from repro.core import GMinerConfig, GMinerJob
from repro.graph.datasets import load_dataset
from repro.sim.cluster import ClusterSpec

SPEC = ClusterSpec(num_nodes=4, cores_per_node=2)


def fingerprint(result):
    return (
        result.status,
        result.value if not isinstance(result.value, list) else tuple(result.value),
        round(result.total_seconds, 12),
        round(result.mining_seconds, 12),
        result.peak_memory_bytes,
        result.network_bytes,
        tuple(sorted(result.stats.items())),
    )


class TestJobDeterminism:
    @pytest.mark.parametrize("app_cls", [TriangleCountingApp, MaxCliqueApp])
    def test_identical_runs(self, small_social_graph, app_cls):
        config = GMinerConfig(cluster=SPEC)
        a = GMinerJob(app_cls(), small_social_graph, config).run()
        b = GMinerJob(app_cls(), small_social_graph, config).run()
        assert fingerprint(a) == fingerprint(b)

    def test_gm_with_all_features(self, small_labeled_graph):
        config = GMinerConfig(
            cluster=SPEC,
            enable_splitting=True,
            split_candidate_threshold=16,
            checkpoint_interval=0.05,
            enable_obs=True,
        )
        a = GMinerJob(GraphMatchingApp(), small_labeled_graph, config).run()
        b = GMinerJob(GraphMatchingApp(), small_labeled_graph, config).run()
        assert fingerprint(a) == fingerprint(b)
        assert len(a.obs["spans"]) == len(b.obs["spans"]) > 0

    def test_datasets_are_stable(self):
        """The registry's graphs never change under the same seeds —
        every number in EXPERIMENTS.md depends on this."""
        g = load_dataset("orkut-s").graph
        assert (g.num_vertices, g.num_edges, g.max_degree()) == (2000, 49402, 120)
        g = load_dataset("skitter-s").graph
        assert (g.num_vertices, g.num_edges) == (750, 4072)

    def test_baselines_deterministic(self, small_social_graph):
        for system in ("giraph", "gthinker"):
            a = run(system=system, workload="tc", dataset="skitter-s", spec=SPEC)
            b = run(system=system, workload="tc", dataset="skitter-s", spec=SPEC)
            assert fingerprint(a) == fingerprint(b), system

    def test_runner_is_deterministic_across_overrides(self):
        a = run(workload="mcf", dataset="skitter-s", spec=SPEC, enable_lsh=False)
        b = run(workload="mcf", dataset="skitter-s", spec=SPEC, enable_lsh=False)
        assert fingerprint(a) == fingerprint(b)


class TestConfigIndependence:
    """Changing performance knobs must never change mining *results*."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"partitioner": "hash"},
            {"enable_lsh": False},
            {"enable_stealing": False},
            {"cache_capacity_bytes": 4096},
            {"store_block_tasks": 2},
            {"steal_batch": 1},
            {"steal_cost_threshold": 0.0},
            {"task_buffer_batch": 1},
            {"processes_per_node": 2},
            {"agg_interval": 0.001},
        ],
    )
    def test_mcf_value_invariant(self, small_social_graph, overrides):
        base = GMinerJob(
            MaxCliqueApp(), small_social_graph, GMinerConfig(cluster=SPEC)
        ).run()
        varied = GMinerJob(
            MaxCliqueApp(),
            small_social_graph,
            GMinerConfig(cluster=SPEC).replace(**overrides),
        ).run()
        assert len(varied.value) == len(base.value), overrides
