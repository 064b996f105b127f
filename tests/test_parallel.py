"""Tests for repro.parallel: pool fan-out, build cache, the run() API."""

import pytest

from repro.bench import run
from repro.graph.datasets import clear_dataset_cache, load_dataset
from repro.parallel import (
    BuildCache,
    ParallelRunner,
    RunRequest,
    content_key,
    current_runner,
    parallel_context,
    set_build_cache,
    source_fingerprint,
)
from repro.core.config import GMinerConfig
from repro.sim.cluster import ClusterSpec

FAST_SPEC = ClusterSpec(num_nodes=4, cores_per_node=2)

FAST_CELLS = [
    RunRequest.make("tc", "skitter-s", spec=FAST_SPEC),
    RunRequest.make("mcf", "skitter-s", spec=FAST_SPEC),
    RunRequest.make("tc", "skitter-s", system="gthinker", spec=FAST_SPEC),
]


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    """Each test starts and ends with no process-wide build cache."""
    previous = set_build_cache(None)
    yield
    set_build_cache(previous)


class TestParallelEquivalence:
    def test_pool_results_identical_to_serial(self):
        serial = ParallelRunner(workers=1).map(FAST_CELLS)
        pooled = ParallelRunner(workers=4).map(FAST_CELLS)
        assert len(serial) == len(pooled) == len(FAST_CELLS)
        for s, p in zip(serial, pooled):
            assert s.to_dict() == p.to_dict()

    def test_run_entrypoint_workers_identical(self):
        r1 = run(workload="tc", dataset="skitter-s", spec=FAST_SPEC, workers=1)
        r4 = run(workload="tc", dataset="skitter-s", spec=FAST_SPEC, workers=4)
        assert r1.to_dict() == r4.to_dict()

    def test_results_come_back_in_request_order(self):
        results = ParallelRunner(workers=4).map(FAST_CELLS)
        # tc finds triangles, mcf finds cliques: distinguishable outputs
        assert results[0].app_name == results[2].app_name == "tc"
        assert results[1].app_name == "mcf"
        assert results[0].to_dict() != results[1].to_dict()

    def test_outcomes_and_footer(self):
        runner = ParallelRunner(workers=1)
        runner.map(FAST_CELLS[:2])
        assert len(runner.outcomes) == 2
        assert all(o.wall_seconds > 0 for o in runner.outcomes)
        footer = runner.footer_summary()
        assert "2 cells" in footer and "workers=1" in footer

    def test_footer_none_without_cells(self):
        assert ParallelRunner(workers=1).footer_summary() is None

    def test_ambient_runner_defaults_to_serial(self):
        runner = current_runner()
        assert runner.workers == 1
        with parallel_context(workers=3) as installed:
            assert current_runner() is installed
            assert current_runner().workers == 3
        assert current_runner() is not installed


class TestBuildCache:
    def test_miss_then_hit(self, tmp_path):
        cache = BuildCache(directory=str(tmp_path))
        calls = []
        build = lambda: calls.append(1) or "value"
        assert cache.lookup("thing", {"x": 1}, build) == "value"
        assert cache.lookup("thing", {"x": 1}, build) == "value"
        assert calls == [1]
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_different_params_miss(self, tmp_path):
        cache = BuildCache(directory=str(tmp_path))
        cache.lookup("thing", {"x": 1}, lambda: "a")
        cache.lookup("thing", {"x": 2}, lambda: "b")
        assert cache.stats()["misses"] == 2

    def test_disk_persistence_across_instances(self, tmp_path):
        first = BuildCache(directory=str(tmp_path))
        first.lookup("thing", {"x": 1}, lambda: {"built": True})
        fresh = BuildCache(directory=str(tmp_path))
        value = fresh.lookup("thing", {"x": 1}, lambda: pytest.fail("rebuilt"))
        assert value == {"built": True}
        assert fresh.stats()["disk_hits"] == 1

    def test_no_persist_writes_nothing(self, tmp_path):
        cache = BuildCache(directory=str(tmp_path / "sub"), persist=False)
        cache.lookup("thing", {"x": 1}, lambda: "v")
        assert not (tmp_path / "sub").exists()

    def test_content_key_stable_and_sensitive(self):
        assert content_key("k", {"a": 1, "b": 2}) == content_key("k", {"b": 2, "a": 1})
        assert content_key("k", {"a": 1}) != content_key("k", {"a": 2})
        assert content_key("k", {"a": 1}) != content_key("other", {"a": 1})

    def test_source_fingerprint_differs_across_functions(self):
        def f():
            return 1

        def g():
            return 2

        assert source_fingerprint(f) != source_fingerprint(g)

    def test_dataset_builds_cached_and_seed_sensitive(self, tmp_path):
        cache = BuildCache(directory=str(tmp_path))
        set_build_cache(cache)
        try:
            clear_dataset_cache()
            load_dataset("skitter-s", labeled=True, label_seed=1)
            baseline = cache.stats()["misses"]
            # same seed again: decorated build is a hit, not a rebuild
            load_dataset("skitter-s", labeled=True, label_seed=1)
            assert cache.stats()["misses"] == baseline
            # changing the generator seed invalidates: fresh miss
            load_dataset("skitter-s", labeled=True, label_seed=2)
            assert cache.stats()["misses"] == baseline + 1
        finally:
            set_build_cache(None)
            clear_dataset_cache()

    def test_partition_assignment_cached(self, tmp_path):
        cache = BuildCache(directory=str(tmp_path))
        runner = ParallelRunner(workers=1, cache=cache)
        request = RunRequest.make("tc", "skitter-s", spec=FAST_SPEC)
        first = runner.map([request])[0]
        before = cache.stats()["hits"]
        second = runner.map([request])[0]
        assert cache.stats()["hits"] > before
        assert first.to_dict() == second.to_dict()
        assert runner.cache_stats()["hits"] >= 1

    def test_cached_run_identical_to_uncached(self, tmp_path):
        request = RunRequest.make("mcf", "skitter-s", spec=FAST_SPEC)
        uncached = ParallelRunner(workers=1).map([request])[0]
        cache = BuildCache(directory=str(tmp_path))
        warm = ParallelRunner(workers=1, cache=cache)
        warm.map([request])  # populate
        cached = warm.map([request])[0]
        assert uncached.to_dict() == cached.to_dict()


class TestRunAPI:
    def test_run_is_keyword_only(self):
        with pytest.raises(TypeError):
            run("tc", "skitter-s")  # noqa: the point is positional args fail

    def test_run_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown system"):
            run(system="spark", workload="tc", dataset="skitter-s")

    def test_run_unsupported_workload_returns_none(self):
        assert run(system="giraph", workload="gc", dataset="tencent-s") is None

    def test_run_applies_config_overrides(self):
        r = run(
            workload="tc", dataset="skitter-s", spec=FAST_SPEC, partitioner="hash"
        )
        assert r.ok


class TestConfigFailFast:
    def test_bad_partitioner_fails_at_construction(self):
        with pytest.raises(ValueError, match="partitioner"):
            GMinerConfig(partitioner="metis")

    def test_bad_cache_policy_fails_at_construction(self):
        with pytest.raises(ValueError, match="cache policy"):
            GMinerConfig(cache_policy="arc")

    def test_nonpositive_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            GMinerConfig(checkpoint_interval=0)

    def test_nonpositive_time_limit_rejected(self):
        with pytest.raises(ValueError, match="time_limit"):
            GMinerConfig(time_limit=-1.0)

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            GMinerConfig(ClusterSpec())  # positional cluster no longer allowed

    def test_replace_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown GMinerConfig field"):
            GMinerConfig().replace(partitoner="bdg")  # typo'd knob
