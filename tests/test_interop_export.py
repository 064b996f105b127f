"""Tests for NetworkX interop and JSON export."""

import json

import pytest

networkx = pytest.importorskip("networkx")

from repro.apps import MaxCliqueApp, TriangleCountingApp
from repro.bench.export import save_json
from repro.bench.report import Check, ExperimentReport
from repro.core import GMinerConfig, GMinerJob
from repro.graph.algorithms import triangle_count_exact
from repro.graph.interop import from_networkx, to_networkx


class TestNetworkXInterop:
    def test_round_trip_structure(self, small_social_graph):
        nx_graph = to_networkx(small_social_graph)
        back = from_networkx(nx_graph)
        assert back.num_vertices == small_social_graph.num_vertices
        assert back.num_edges == small_social_graph.num_edges
        for v in small_social_graph.vertices():
            assert back.neighbors(v) == small_social_graph.neighbors(v)

    def test_labels_and_attrs_carried(self, tiny_graph):
        tiny_graph.set_label(0, "a")
        tiny_graph.set_attributes(1, [5, 6])
        nx_graph = to_networkx(tiny_graph)
        assert nx_graph.nodes[0]["label"] == "a"
        assert nx_graph.nodes[1]["attrs"] == [5, 6]
        back = from_networkx(nx_graph)
        assert back.label(0) == "a"
        assert back.attributes(1) == (5, 6)

    def test_non_integer_nodes_rejected(self):
        g = networkx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValueError):
            from_networkx(g)

    def test_mining_on_imported_graph(self, small_spec):
        nx_graph = networkx.karate_club_graph()
        graph = from_networkx(nx_graph)
        result = GMinerJob(
            TriangleCountingApp(), graph, GMinerConfig(cluster=small_spec)
        ).run()
        assert result.value == triangle_count_exact(graph)
        # independent oracle: networkx's triangle counter (per-vertex,
        # each triangle counted three times)
        assert result.value == sum(networkx.triangles(nx_graph).values()) // 3


class TestJSONExport:
    @pytest.fixture
    def result(self, small_social_graph, small_spec):
        config = GMinerConfig(cluster=small_spec, enable_obs=True)
        return GMinerJob(MaxCliqueApp(), small_social_graph, config).run()

    def test_job_result_roundtrips_through_json(self, result):
        record = result.to_dict()
        text = json.dumps(record)
        loaded = json.loads(text)
        assert loaded["status"] == "ok"
        assert loaded["app"] == "mcf"
        assert loaded["total_seconds"] == pytest.approx(result.total_seconds)
        assert "utilization" in loaded
        assert loaded["obs"]["schema"] == result.obs["schema"]
        assert loaded["obs"]["num_spans"] == len(result.obs["spans"]) > 0
        assert loaded["obs"]["metrics"] == result.obs["metrics"]

    def test_value_serialised(self, result):
        record = result.to_dict()
        assert record["value"] == list(result.value)

    def test_save_json(self, result, tmp_path):
        record = result.to_dict()
        path = save_json(record, str(tmp_path / "r" / "out.json"))
        with open(path) as fh:
            assert json.load(fh)["app"] == "mcf"

    def test_experiment_report_export(self, result):
        report = ExperimentReport(
            "t", "Title", "body", data={"run": result},
            checks=[Check("c", True, "d")],
        )
        record = report.to_dict()
        json.dumps(record)  # must be serialisable
        assert record["data"]["run"]["status"] == "ok"
        assert record["checks"] == [{"name": "c", "passed": True, "detail": "d"}]
