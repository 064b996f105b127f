"""Tests for the benchmark harness layer."""

import pytest

from repro.bench.report import (
    Check,
    ExperimentReport,
    format_cell,
    render_series,
    render_table,
)
from repro.bench.runner import (
    EXPERIMENT_SPEC,
    build_app,
    gc_exemplars,
    prepare_dataset,
    run,
)
from repro.core.job import JobResult, JobStatus
from repro.sim.cluster import ClusterSpec

FAST_SPEC = ClusterSpec(num_nodes=4, cores_per_node=2)


class TestFormatting:
    def test_ok_formats_seconds(self):
        r = JobResult(status=JobStatus.OK, app_name="tc", total_seconds=1.5)
        assert format_cell(r) == "1.500"

    def test_oom_is_x(self):
        r = JobResult(status=JobStatus.OOM, app_name="tc")
        assert format_cell(r) == "x"

    def test_timeout_is_dash(self):
        r = JobResult(status=JobStatus.TIMEOUT, app_name="tc")
        assert format_cell(r) == "-"

    def test_unsupported_is_na(self):
        assert format_cell(None) == "n/a"

    def test_metric_variants(self):
        r = JobResult(
            status=JobStatus.OK,
            app_name="tc",
            total_seconds=2.0,
            mining_seconds=1.0,
            cpu_utilization=0.5,
            peak_memory_bytes=3_000_000,
            network_bytes=1_000_000,
        )
        assert format_cell(r, "mining") == "1.000"
        assert format_cell(r, "cpu") == "50.0%"
        assert format_cell(r, "mem") == "3.00MB"
        assert format_cell(r, "net") == "1.00MB"
        with pytest.raises(ValueError):
            format_cell(r, "joules")

    def test_render_table_alignment(self):
        table = render_table(
            "T", ["c1", "c2"], [["1", "22"], ["333", "4"]], ["rowA", "rowB"]
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "c1" in lines[1] and "c2" in lines[1]
        assert len(lines) == 5

    def test_render_series(self):
        out = render_series("S", "x", [1, 2], {"a": [0.5, 1.5]})
        assert "0.500" in out and "1.500" in out

    def test_report_str(self):
        rep = ExperimentReport(
            "t1", "Title", "body",
            checks=[Check("held", True, "1/1"), Check("broke", False)],
            notes=["n"],
        )
        assert str(rep).splitlines() == [
            "== t1: Title ==",
            "body",
            "shape checks: held [1/1]",
            "FAILED shape checks: broke",
            "notes: n",
        ]
        assert rep.failed_checks == [Check("broke", False)]


class TestRunner:
    def test_prepare_dataset_decorations(self):
        assert prepare_dataset("skitter-s", "gm").graph.is_labeled
        assert prepare_dataset("skitter-s", "cd").graph.is_attributed
        assert not prepare_dataset("skitter-s", "tc").graph.is_labeled

    def test_gc_exemplars_prefer_ground_truth(self):
        built = prepare_dataset("dblp-s", "gc")
        exemplars = gc_exemplars(built)
        target = {built.community_map[v] for v in exemplars}
        assert len(target) == 1

    def test_build_app_names(self):
        for app in ("tc", "mcf", "gm", "cd", "gc", "gl"):
            built = prepare_dataset("dblp-s", app)
            assert build_app(app, built).name == app
        with pytest.raises(ValueError):
            build_app("pagerank", prepare_dataset("dblp-s", "tc"))

    def test_run_with_overrides(self):
        result = run(workload="tc", dataset="skitter-s", spec=FAST_SPEC, enable_lsh=False)
        assert result.ok

    def test_run_graphlets(self):
        # GL pulls 2-hop neighbourhoods: give it an open-ended budget
        result = run(workload="gl", dataset="skitter-s", spec=FAST_SPEC, time_limit=None)
        assert result.ok
        assert result.value["triangle"] > 0

    def test_run_all_systems_tc(self):
        for system in ("single-thread", "arabesque", "giraph", "graphx",
                       "gthinker", "gminer"):
            result = run(system=system, workload="tc", dataset="skitter-s", spec=FAST_SPEC)
            assert result is not None
            assert result.ok, system

    def test_results_agree_across_systems(self):
        values = {
            system: run(system=system, workload="tc", dataset="skitter-s", spec=FAST_SPEC).value
            for system in ("single-thread", "giraph", "gthinker", "gminer")
        }
        assert len(set(values.values())) == 1

    def test_unsupported_returns_none(self):
        assert run(system="giraph", workload="gm", dataset="skitter-s", spec=FAST_SPEC) is None

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError):
            run(system="spark", workload="tc", dataset="skitter-s", spec=FAST_SPEC)

    def test_experiment_spec_shape(self):
        assert EXPERIMENT_SPEC.num_nodes == 15
