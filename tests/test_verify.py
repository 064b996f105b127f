"""Tests for the runtime invariant checker (repro.verify).

The contract, in order of importance:

* read-only: arming the monitor changes no simulated quantity — the
  full chaos fingerprint of a run is byte-identical with it on or off;
* zero overhead off: a run without verification allocates no monitors
  and no window records;
* a planted accounting bug (a core pool charging more work than the
  worker performed) is caught at the next barrier check;
* violations carry a structured, JSON-able repro window.
"""

import types

import pytest

from repro.apps import TriangleCountingApp
from repro.bench.runner import run
from repro.core import GMinerConfig, GMinerJob, JobStatus
from repro.sim.cluster import ClusterSpec
from repro.sim.cpu import CorePool
from repro.verify import (
    InvariantMonitor,
    InvariantViolation,
    allocation_counts,
    verify_env_enabled,
)
from tests.conftest import make_cluster_config, make_clustered_graph

SPEC = ClusterSpec(num_nodes=4, cores_per_node=2)


def run_tc(**overrides):
    return run(workload="tc", dataset="skitter-s", spec=SPEC,
               time_limit=None, **overrides)


def fingerprint(result):
    value = result.value
    if isinstance(value, (set, frozenset)):
        value = tuple(sorted(value))
    return (
        result.status.value,
        value,
        result.num_results,
        result.total_seconds,
        result.network_bytes,
        result.peak_memory_bytes,
        tuple(sorted(result.stats.items())),
    )


# ----------------------------------------------------------------------
# monitor unit behaviour
# ----------------------------------------------------------------------


class TestMonitorUnit:
    def test_clock_monotonicity_violation(self):
        monitor = InvariantMonitor()
        monitor.on_sim_event(0.0, 1.0)
        with pytest.raises(InvariantViolation) as exc:
            monitor.on_sim_event(1.0, 0.5)
        assert exc.value.invariant == "clock-monotonic"

    def test_message_books_balance(self):
        monitor = InvariantMonitor()
        network = types.SimpleNamespace(messages_sent=2)
        message = types.SimpleNamespace(src=0, dst=1)
        for _ in range(2):
            monitor.on_net_offered(0, 1, "payload")
            monitor.on_net_accepted(1)
        monitor.on_net_settled(message, delivered=True)
        monitor.check_network(network)  # one delivered, one in flight
        monitor.on_net_settled(message, delivered=True)
        monitor.check_network(network)
        assert monitor.net_delivered == 2
        assert monitor.net_inflight == 0

    def test_duplicates_appear_on_offered_side(self):
        monitor = InvariantMonitor()
        network = types.SimpleNamespace(messages_sent=1)
        message = types.SimpleNamespace(src=0, dst=1)
        monitor.on_net_offered(0, 1, "payload")
        monitor.on_net_accepted(2)  # original + one fault-injected copy
        monitor.on_net_settled(message, delivered=True)
        monitor.on_net_settled(message, delivered=True)
        monitor.check_network(network)
        assert monitor.net_duplicated == 1

    def test_unbalanced_books_raise(self):
        monitor = InvariantMonitor()
        network = types.SimpleNamespace(messages_sent=1)
        monitor.on_net_offered(0, 1, "payload")
        # never accepted, never dropped: the ledger cannot balance
        with pytest.raises(InvariantViolation) as exc:
            monitor.check_network(network)
        assert exc.value.invariant == "message-conservation"

    def test_settle_without_accept_raises(self):
        monitor = InvariantMonitor()
        message = types.SimpleNamespace(src=0, dst=1)
        with pytest.raises(InvariantViolation):
            monitor.on_net_settled(message, delivered=True)

    def test_dropped_by_reason_ledger(self):
        monitor = InvariantMonitor()
        monitor.on_net_offered(0, 1, "x")
        monitor.on_net_dropped("endpoint_down", 0, 1)
        monitor.on_net_offered(0, 1, "x")
        monitor.on_net_dropped("link_fault", 0, 1)
        network = types.SimpleNamespace(messages_sent=1)
        monitor.check_network(network)
        assert monitor.net_dropped == {"endpoint_down": 1, "link_fault": 1}

    def test_negative_work_raises(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation):
            monitor.on_work(-1.0, "test")

    def test_work_conservation_mismatch_raises(self):
        monitor = InvariantMonitor()
        monitor.on_work(5.0, "test")
        nodes = [types.SimpleNamespace(cores=types.SimpleNamespace(total_work_units=6.0))]
        with pytest.raises(InvariantViolation) as exc:
            monitor.check_work(nodes)
        assert exc.value.invariant == "work-conservation"

    def test_kernel_work_cannot_exceed_charged(self):
        monitor = InvariantMonitor()
        monitor.on_work(5.0, "test")
        monitor.kernel_batch("intersect_count_many", 6.0)
        nodes = [types.SimpleNamespace(cores=types.SimpleNamespace(total_work_units=5.0))]
        with pytest.raises(InvariantViolation) as exc:
            monitor.check_work(nodes)
        assert exc.value.invariant == "kernel-metering"

    def test_violation_carries_structured_window(self):
        monitor = InvariantMonitor(clock=lambda: 1.5, window=2)
        monitor.record("site-a", "event one")
        monitor.record("site-b", "event two")
        monitor.record("site-c", "event three")  # evicts event one
        with pytest.raises(InvariantViolation) as exc:
            monitor.fail("test-invariant", "boom", site="here",
                         observed=1, expected=2)
        violation = exc.value
        assert violation.invariant == "test-invariant"
        assert violation.time == 1.5
        assert len(violation.window) == 2
        assert violation.window[0][1] == "site-b"
        doc = violation.to_dict()
        assert doc["invariant"] == "test-invariant"
        assert [w["site"] for w in doc["window"]] == ["site-b", "site-c"]
        import json

        json.dumps(doc)  # plain primitives only

    def test_summary_counters(self):
        monitor = InvariantMonitor()
        monitor.on_net_offered(0, 1, "x")
        monitor.on_net_accepted(1)
        monitor.on_work(2.0, "test")
        summary = monitor.summary()
        assert summary["net_offered"] == 1
        assert summary["net_inflight"] == 1
        assert summary["work_performed"] == 2.0

    def test_env_toggle(self):
        assert verify_env_enabled({"REPRO_VERIFY": "1"})
        assert not verify_env_enabled({"REPRO_VERIFY": "0"})
        assert not verify_env_enabled({"REPRO_VERIFY": ""})
        assert not verify_env_enabled({})


# ----------------------------------------------------------------------
# read-only + zero-overhead contracts
# ----------------------------------------------------------------------


class TestOverheadAndEquivalence:
    def test_disabled_run_allocates_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        run_tc()  # warm caches so the probe measures steady state
        before = allocation_counts()
        run_tc()
        assert allocation_counts() == before

    def test_enabling_verify_is_byte_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        plain = fingerprint(run_tc())
        checked = fingerprint(run_tc(verify=True))
        assert checked == plain

    def test_config_flag_arms_monitor(self, small_social_graph):
        config = make_cluster_config(verify=True)
        job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
        result = job.run()
        assert result.status is JobStatus.OK
        assert job.verify is not None
        assert job.verify.checks > 0
        assert job.verify.violations == 0

    def test_env_var_arms_monitor(self, small_social_graph, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        config = make_cluster_config()
        job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
        job.run()
        assert job.verify is not None
        assert job.verify.checks > 0

    def test_verify_identical_under_faults(self, monkeypatch):
        """Degraded runs are checked too, and stay byte-identical."""
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        from repro.sim.failures import FailurePlan

        def degraded(**overrides):
            plan = (
                FailurePlan(seed=7)
                .kill(1, at_time=0.05, recovery_delay=0.05)
                .lossy(0.05)
            )
            config = make_cluster_config(
                checkpoint_interval=0.02, time_limit=120.0, **overrides
            )
            job = GMinerJob(
                TriangleCountingApp(), make_clustered_graph(), config,
                failure_plan=plan,
            )
            return job.run()

        plain = fingerprint(degraded())
        checked = fingerprint(degraded(verify=True))
        assert checked == plain


# ----------------------------------------------------------------------
# planted mutant: the monitor must catch a real accounting bug
# ----------------------------------------------------------------------


class TestPlantedMutant:
    @pytest.fixture
    def tampered_pool(self, monkeypatch):
        """A core pool that bills one extra work unit per dispatched item."""
        original = CorePool.submit_lazy

        def tampered(self, factory, front=False):
            def inflating():
                work, on_done = factory()
                return (work + 1.0, on_done)

            return original(self, inflating, front=front)

        monkeypatch.setattr(CorePool, "submit_lazy", tampered)

    def test_metering_bug_caught(self, tampered_pool, small_social_graph):
        config = make_cluster_config(verify=True)
        job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
        with pytest.raises(InvariantViolation) as exc:
            job.run()
        assert exc.value.invariant == "work-conservation"
        assert exc.value.window  # the repro window travelled with it

    def test_metering_bug_silent_without_monitor(
        self, tampered_pool, small_social_graph, monkeypatch
    ):
        """The same bug sails through unchecked — the monitor is what
        catches it, not some other layer."""
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        config = make_cluster_config()
        result = GMinerJob(
            TriangleCountingApp(), small_social_graph, config
        ).run()
        assert result.status is JobStatus.OK

    @pytest.fixture
    def forgetful_cache(self, monkeypatch):
        """An RCV cache whose ``release`` forgets to index the entry
        when its count reaches zero: it is never evicted again."""
        from repro.core.rcv_cache import RCVCache

        def release(self, vid):
            entry = self._entries.get(vid)
            if entry is not None and entry.refs > 0:
                entry.refs -= 1

        monkeypatch.setattr(RCVCache, "release", release)

    def test_lost_zero_ref_record_caught(self, forgetful_cache, small_social_graph):
        config = make_cluster_config(verify=True, cache_capacity_bytes=2048)
        job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
        with pytest.raises(InvariantViolation) as exc:
            job.run()
        assert exc.value.invariant == "cache-zero-index"
        assert "unreferenced but not queued" in str(exc.value.observed)

    def test_lost_zero_ref_record_silent_without_monitor(
        self, forgetful_cache, small_social_graph, monkeypatch
    ):
        """Nothing crashes and the answer is right: the cache just stops
        evicting and every further pull takes the overflow path."""
        from repro.graph.algorithms import triangle_count_exact

        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        config = make_cluster_config(cache_capacity_bytes=2048)
        job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
        result = job.run()
        assert result.status is JobStatus.OK
        assert result.value == triangle_count_exact(small_social_graph)
        assert sum(c.rejected_inserts for w in job.workers for c in w.caches) > 0
