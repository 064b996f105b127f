"""Tests for the observability subsystem (repro.obs).

The contract under test, in rough order of importance:

* read-only: enabling observability changes no simulated quantity;
* zero overhead off: a run without obs allocates no spans or series;
* deterministic: same seed -> byte-identical snapshots and exports;
* the exporters emit well-formed Chrome trace / Prometheus / JSON.
"""

import json

import pytest

from repro.apps import TriangleCountingApp
from repro.bench.runner import run
from repro.core import GMinerConfig, GMinerJob
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    ObsCollector,
    Tracer,
    allocation_counts,
    collecting,
    current_collector,
    environment_metadata,
)
from repro.obs.exporters import (
    chrome_trace,
    dumps_deterministic,
    metrics_document,
    prometheus_text,
)
from repro.sim.cluster import ClusterSpec

SPEC = ClusterSpec(num_nodes=4, cores_per_node=2)


def run_tc(**overrides):
    return run(workload="tc", dataset="skitter-s", spec=SPEC,
               time_limit=None, **overrides)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b", worker=1) is reg.counter("a.b", worker=1)
        assert reg.counter("a.b", worker=1) is not reg.counter("a.b", worker=2)

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a.b", x=1, y=2)
        c2 = reg.counter("a.b", y=2, x=1)
        assert c1 is c2
        assert c1.key == 'a.b{x="1",y="2"}'

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("Bad-Name")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("a.b").inc(-1)

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat.s", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 1.5, 99.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]  # <=1, <=2, +Inf
        assert h.count == 4
        assert h.sum == pytest.approx(102.5)

    def test_histogram_rebucket_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat.s", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("lat.s", buckets=(1.0, 3.0))

    def test_snapshot_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.counter("z.z").inc(2)
        reg.counter("a.a").inc(1)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.a", "z.z"]
        json.dumps(snap)  # plain primitives only

    def test_merge_counters_sum_gauges_max(self):
        a = MetricsRegistry()
        a.counter("c.n").inc(3)
        a.gauge("g.n").set(5.0)
        b = MetricsRegistry()
        b.counter("c.n").inc(4)
        b.gauge("g.n").set(2.0)
        merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["c.n"] == 7
        assert merged["gauges"]["g.n"] == 5.0

    def test_merge_histograms_sum(self):
        a = MetricsRegistry()
        a.histogram("h.n", buckets=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h.n", buckets=(1.0,)).observe(2.0)
        merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["histograms"]["h.n"]["counts"] == [1, 1]
        assert merged["histograms"]["h.n"]["count"] == 2


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_begin_finish_nesting(self):
        clock = {"t": 0.0}
        tr = Tracer(lambda: clock["t"])
        outer = tr.begin("a", cat="task", tid=1)
        clock["t"] = 1.0
        inner = tr.begin("b", cat="task", tid=1, parent=outer.span_id)
        clock["t"] = 2.0
        tr.finish(inner)
        tr.finish(outer)
        d = tr.to_dicts()
        assert d[0]["start"] == 0.0 and d[0]["end"] == 2.0
        assert d[1]["parent"] == d[0]["id"]

    def test_capacity_drops_and_counts(self):
        tr = Tracer(lambda: 0.0, capacity=2)
        assert tr.begin("a") is not None
        assert tr.begin("b") is not None
        assert tr.begin("c") is None
        tr.finish(None)  # None-safe
        assert tr.dropped == 1
        assert len(tr) == 2

    def test_close_open_spans(self):
        tr = Tracer(lambda: 0.0)
        tr.begin("a")
        tr.instant("b")
        assert tr.close_open_spans(5.0) == 1
        assert tr.spans[0].end == 5.0


# ----------------------------------------------------------------------
# Read-only + zero-overhead contracts
# ----------------------------------------------------------------------


class TestOverheadAndEquivalence:
    def test_disabled_run_allocates_nothing(self):
        run_tc()  # warm caches so the probe measures steady state
        before = allocation_counts()
        result = run_tc()
        assert result.obs is None
        assert allocation_counts() == before

    def test_enabling_obs_changes_no_simulated_quantity(self):
        plain = run_tc()
        observed = run_tc(enable_obs=True)
        assert observed.obs is not None
        assert observed.value == plain.value
        assert observed.total_seconds == plain.total_seconds
        assert observed.network_bytes == plain.network_bytes
        assert observed.peak_memory_bytes == plain.peak_memory_bytes

    def test_same_seed_snapshots_byte_identical(self):
        a = run_tc(enable_obs=True)
        b = run_tc(enable_obs=True)
        assert dumps_deterministic(a.obs) == dumps_deterministic(b.obs)

    def test_gauges_mirror_job_result(self):
        result = run_tc(enable_obs=True)
        gauges = result.obs["metrics"]["gauges"]
        assert gauges["job.makespan"] == pytest.approx(result.total_seconds)
        assert gauges["job.messages"] > 0
        assert gauges["job.network_bytes"] == result.network_bytes

    def test_span_taxonomy_present(self):
        result = run_tc(enable_obs=True)
        names = {s["name"] for s in result.obs["spans"]}
        for expected in ("job.setup", "job.mining", "task.seed",
                         "task.pull_wait", "task.round", "rpc.pull"):
            assert expected in names, expected

    def test_collector_auto_attaches(self):
        assert current_collector() is None
        collector = ObsCollector()
        with collecting(collector):
            assert current_collector() is collector
            result = run_tc()
        assert current_collector() is None
        assert len(collector) == 1
        assert result.obs is not None
        assert collector.runs[0] is result.obs


# ----------------------------------------------------------------------
# The task lifecycle, read from a job's spans
# ----------------------------------------------------------------------


class TestTracedJob:
    @pytest.fixture
    def traced(self, small_social_graph, small_spec):
        config = GMinerConfig(cluster=small_spec, enable_obs=True)
        return GMinerJob(TriangleCountingApp(), small_social_graph, config).run()

    @staticmethod
    def _named(result, name):
        return [s for s in result.obs["spans"] if s["name"] == name]

    def test_job_trace_covers_every_task(self, traced):
        # every created task was seeded and finished exactly once
        created = traced.stats["tasks_created"]
        assert created > 0
        assert len(self._named(traced, "task.seeded")) == created
        assert len(self._named(traced, "task.finished")) == created
        # rounds in the trace agree with the runtime counters
        rounds = traced.stats["rounds_executed"]
        assert len(self._named(traced, "task.round")) == rounds
        assert len(self._named(traced, "task.executed")) == rounds

    def test_task_timelines_are_causally_ordered(self, traced):
        lifecycle = [s for s in traced.obs["spans"] if s["cat"] == "lifecycle"]
        finished = [s["args"]["task"] for s in self._named(traced, "task.finished")]
        assert finished
        for task in finished[:20]:
            timeline = [s for s in lifecycle if s["args"]["task"] == task]
            times = [s["start"] for s in timeline]
            assert times == sorted(times)
            assert timeline[0]["name"] in ("task.seeded", "task.migrated_in")
            assert timeline[-1]["name"] == "task.finished"

    def test_tracing_off_by_default(self, small_social_graph, small_spec):
        config = GMinerConfig(cluster=small_spec)
        result = GMinerJob(TriangleCountingApp(), small_social_graph, config).run()
        assert result.obs is None

    def test_pull_latencies_recorded(self, traced):
        waits = self._named(traced, "task.pull_wait")
        assert waits
        assert all(s["end"] - s["start"] >= 0 for s in waits)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_run():
    return run(workload="tc", dataset="skitter-s", spec=SPEC,
               time_limit=None, enable_obs=True).obs


class TestExporters:
    def test_chrome_trace_structure(self, obs_run):
        doc = chrome_trace([obs_run])
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i"}
        assert "X" in phases and "i" in phases
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)
        assert any(e["args"]["name"] == "master" for e in meta
                   if e["name"] == "thread_name")
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] > 0 and e["ts"] >= 0

    def test_chrome_trace_one_pid_per_run(self, obs_run):
        doc = chrome_trace([obs_run, obs_run])
        assert {e["pid"] for e in doc["traceEvents"]} == {0, 1}

    def test_prometheus_text(self, obs_run):
        text = prometheus_text(obs_run["metrics"])
        assert "# TYPE sim_events counter" in text
        assert "# TYPE job_makespan gauge" in text
        assert "# TYPE gminer_pull_wait_seconds histogram" in text
        assert 'le="+Inf"' in text
        # cumulative bucket counts must end at the series count
        lines = text.splitlines()
        inf = next(l for l in lines if l.startswith("gminer_pull_wait_seconds_bucket")
                   and 'le="+Inf"' in l)
        count = next(l for l in lines
                     if l.startswith("gminer_pull_wait_seconds_count"))
        assert inf.rsplit(" ", 1)[1] == count.rsplit(" ", 1)[1]

    def test_metrics_document_schema(self, obs_run):
        doc = metrics_document([obs_run])
        assert doc["schema"] == "repro.obs.metrics/1"
        assert len(doc["runs"]) == 1
        entry = doc["runs"][0]
        assert entry["num_spans"] == len(obs_run["spans"])
        assert entry["metrics"] == obs_run["metrics"]

    def test_deterministic_dumps(self, obs_run):
        assert dumps_deterministic(obs_run) == dumps_deterministic(
            json.loads(dumps_deterministic(obs_run))
        )

    def test_env_metadata(self):
        env = environment_metadata()
        assert set(env) >= {
            "python", "implementation", "numpy", "cpu_count", "platform",
            "machine",
        }
        assert env["cpu_count"] >= 1
