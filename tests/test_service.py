"""The multi-tenant mining service: admission, fairness, determinism.

The contract under test (DESIGN.md §8):

* admission control refuses overload *at the door* with structured
  :class:`~repro.service.AdmissionRejected` reasons;
* scheduling is weighted deficit round-robin over tenants with
  priority classes — no starvation, no priority inversion;
* the service clock is virtual, so the same submissions against the
  same config yield a byte-identical ``schedule_log``;
* a job run through the service is bit-identical to the same
  arguments passed to standalone ``repro.mine()`` — slicing is
  invisible;
* cancellation and shutdown are cooperative on both execution paths
  and leave no orphan worker processes.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro
from repro.core.errors import JobCancelled
from repro.service import (
    AdmissionRejected,
    JobState,
    MiningService,
    ServiceConfig,
    TrafficConfig,
    generate_trace,
    graph_for,
)
from repro.service.slo import jain_index, nearest_rank
from repro.service.traffic import bounded_pareto

from .conftest import make_clustered_graph


def tc_graph(n=40, seed=7):
    return make_clustered_graph(n=n, m=3, seed=seed)


def finish_order(service):
    """Job ids in the order their 'finish' entries hit the schedule log."""
    return [entry[2] for entry in service.schedule_log if entry[0] == "finish"]


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_at_exact_depth(self):
        service = MiningService(ServiceConfig(max_queue_depth=3))
        graph = tc_graph()
        for _ in range(3):
            service.submit(graph, workload="tc")
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(graph, workload="tc")
        err = excinfo.value
        assert err.reason == "queue-full"
        assert (err.current, err.limit) == (3, 3)

    def test_tenant_cap_counts_queued_and_running(self):
        service = MiningService(
            ServiceConfig(
                max_inflight_per_tenant=2,
                max_running=1,
                slice_seconds=0.001,
                quantum_work_units=1.0,
            )
        )
        graph = tc_graph(n=80)
        first = service.submit(graph, workload="tc", tenant="t")
        service.step()  # first job now RUNNING; still in-flight
        assert service.poll(first) is JobState.RUNNING
        service.submit(graph, workload="tc", tenant="t")
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(graph, workload="tc", tenant="t")
        assert excinfo.value.reason == "tenant-cap"
        assert excinfo.value.tenant == "t"
        # another tenant is unaffected by t's cap
        service.submit(graph, workload="tc", tenant="u")

    def test_shutdown_rejects_new_submissions(self):
        service = MiningService()
        service.shutdown()
        with pytest.raises(AdmissionRejected) as excinfo:
            service.submit(tc_graph(), workload="tc")
        assert excinfo.value.reason == "shutting-down"

    def test_rejections_reach_the_slo_report(self):
        service = MiningService(ServiceConfig(max_queue_depth=1))
        graph = tc_graph()
        service.submit(graph, workload="tc", tenant="t")
        for _ in range(2):
            with pytest.raises(AdmissionRejected):
                service.submit(graph, workload="tc", tenant="t")
        service.run_until_idle()
        report = service.slo_report()
        assert report.jobs_rejected == 2
        assert report.tenants["t"]["rejected"] == 2

    def test_bad_priority_is_a_caller_error_not_a_rejection(self):
        with pytest.raises(ValueError, match="priority"):
            MiningService().submit(tc_graph(), workload="tc", priority="urgent")

    def test_bad_workload_is_a_caller_error(self):
        with pytest.raises(Exception):
            MiningService().submit(tc_graph(), workload="nope")

    def test_native_job_with_simulated_plan_is_refused_at_submit(self):
        """A native job cannot run a simulated FailurePlan: submit
        raises before the job takes a queue entry or a running slot."""
        from repro.sim.failures import FailurePlan

        service = MiningService()
        with pytest.raises(ValueError, match="failure_plan"):
            service.submit(
                tc_graph(), workload="tc", execution="native",
                failure_plan=FailurePlan().kill(0, at_time=0.1),
            )
        service.run_until_idle()
        assert service._queued == [] and service._running == []
        assert [e for e in service.schedule_log if e[0] in ("submit", "start")] == []


# ----------------------------------------------------------------------
# results: bit-identity with standalone mine()
# ----------------------------------------------------------------------


class TestBitIdentity:
    def test_all_six_workloads_match_standalone_mine(self):
        graphs = {}
        for i, workload in enumerate(["tc", "mcf", "gm", "gl", "cd", "gc"]):
            graph = make_clustered_graph(
                n=36 + 4 * i, m=3, seed=50 + i,
                labeled=(workload == "gm"),
            )
            if workload in ("cd", "gc"):
                from repro.graph.generators import random_attributes

                random_attributes(graph, seed=5)
            graphs[workload] = graph
        service = MiningService(
            ServiceConfig(slice_seconds=0.02, quantum_work_units=25.0)
        )
        handles = {}
        for j, (workload, graph) in enumerate(graphs.items()):
            options = {"k": 2} if workload == "gl" else {}
            handles[workload] = service.submit(
                graph,
                workload=workload,
                tenant="a" if j % 2 else "b",
                priority=["high", "normal", "low"][j % 3],
                **options,
            )
        service.run_until_idle()
        for workload, handle in handles.items():
            options = {"k": 2} if workload == "gl" else {}
            solo = repro.mine(graphs[workload], workload=workload, **options)
            assert service.result(handle).to_dict() == solo.to_dict(), workload

    def test_interleaving_is_invisible_even_with_tiny_slices(self):
        graph = tc_graph(n=50)
        service = MiningService(
            ServiceConfig(slice_seconds=0.005, quantum_work_units=5.0)
        )
        handles = [service.submit(graph, workload="tc") for _ in range(3)]
        service.run_until_idle()
        solo = repro.mine(graph, workload="tc")
        for handle in handles:
            assert service.result(handle).to_dict() == solo.to_dict()


# ----------------------------------------------------------------------
# scheduling: priorities and fairness
# ----------------------------------------------------------------------


class TestScheduling:
    def test_no_priority_inversion_behind_a_long_low_priority_job(self):
        # a long low-priority job is admitted first; a burst of
        # high-priority jobs arrives behind it — slicing must let every
        # high-priority job finish before the whale does
        service = MiningService(
            ServiceConfig(slice_seconds=0.01, quantum_work_units=10.0)
        )
        whale = service.submit(
            tc_graph(n=90, seed=1), workload="tc", priority="low", name="whale"
        )
        burst = [
            service.submit(
                tc_graph(n=20, seed=10 + i),
                workload="tc",
                priority="high",
                name=f"burst-{i}",
            )
            for i in range(3)
        ]
        service.run_until_idle()
        order = finish_order(service)
        for handle in burst:
            assert order.index(handle.job_id) < order.index(whale.job_id)

    def test_admission_order_is_priority_then_arrival(self):
        service = MiningService(ServiceConfig(max_running=1))
        graph = tc_graph()
        low = service.submit(graph, workload="tc", priority="low")
        normal = service.submit(graph, workload="tc", priority="normal")
        high = service.submit(graph, workload="tc", priority="high")
        service.run_until_idle()
        order = finish_order(service)
        assert order.index(high.job_id) < order.index(normal.job_id)
        assert order.index(normal.job_id) < order.index(low.job_id)

    def test_light_tenant_is_not_starved_under_10_to_1_skew(self):
        # heavy demands 10 jobs, light demands 1, equal weights: DRR
        # alternates tenants, so light's job must finish among the
        # first few completions instead of queueing behind all ten
        service = MiningService(
            ServiceConfig(
                slice_seconds=0.01,
                quantum_work_units=10.0,
                max_inflight_per_tenant=16,
            )
        )
        graph = tc_graph(n=40)
        heavy = [
            service.submit(graph, workload="tc", tenant="heavy")
            for _ in range(10)
        ]
        light = service.submit(graph, workload="tc", tenant="light")
        service.run_until_idle()
        order = finish_order(service)
        light_pos = order.index(light.job_id)
        assert light_pos < 3, (
            f"light tenant finished {light_pos + 1}th of {len(order)}"
        )
        report = service.slo_report()
        assert report.tenants["heavy"]["completed"] == 10
        assert report.tenants["light"]["completed"] == 1
        # identical per-job demand: attained work splits close to evenly
        # per *job*, wildly unevenly per *tenant* — the index sees tenants
        assert 0.0 < report.fairness_index <= 1.0
        _ = heavy

    def test_tenant_weights_bias_completion_order(self):
        # same demand from both tenants; gold weighs 4x silver, so
        # gold's queue drains first under deficit round-robin
        service = MiningService(
            ServiceConfig(
                slice_seconds=0.01,
                quantum_work_units=10.0,
                tenant_weights={"gold": 4.0, "silver": 1.0},
            )
        )
        gold, silver = [], []
        for i in range(4):
            # silver first in rotation: the weight, not arrival order,
            # must be what wins
            silver.append(
                service.submit(tc_graph(seed=30 + i), workload="tc",
                               tenant="silver")
            )
            gold.append(
                service.submit(tc_graph(seed=60 + i), workload="tc",
                               tenant="gold")
            )
        service.run_until_idle()
        order = finish_order(service)
        gold_last = max(order.index(h.job_id) for h in gold)
        silver_last = max(order.index(h.job_id) for h in silver)
        assert gold_last < silver_last
        report = service.slo_report()
        assert report.tenants["gold"]["weight"] == 4.0


# ----------------------------------------------------------------------
# cancellation and shutdown
# ----------------------------------------------------------------------


class TestCancel:
    def test_cancel_queued_job_is_immediate(self):
        service = MiningService(ServiceConfig(max_running=1))
        graph = tc_graph()
        first = service.submit(graph, workload="tc")
        second = service.submit(graph, workload="tc")
        assert service.cancel(second) is True
        assert service.poll(second) is JobState.CANCELLED
        service.run_until_idle()
        assert service.poll(first) is JobState.DONE
        with pytest.raises(JobCancelled):
            service.result(second)

    def test_cancel_running_sim_job_stops_at_slice_boundary(self):
        service = MiningService(
            ServiceConfig(slice_seconds=0.005, quantum_work_units=1.0)
        )
        handle = service.submit(tc_graph(n=80), workload="tc")
        service.step()  # admit + first quantum
        assert service.poll(handle) is JobState.RUNNING
        assert service.cancel(handle) is True
        service.run_until_idle()
        assert service.poll(handle) is JobState.CANCELLED

    def test_cancel_finished_job_returns_false(self):
        service = MiningService()
        handle = service.submit(tc_graph(), workload="tc")
        service.run_until_idle()
        assert service.cancel(handle) is False
        assert service.poll(handle) is JobState.DONE

    def test_shutdown_cancels_queued_and_running_sim_jobs(self):
        service = MiningService(
            ServiceConfig(
                max_running=1, slice_seconds=0.001, quantum_work_units=1.0
            )
        )
        graph = tc_graph(n=80)
        running = service.submit(graph, workload="tc")
        queued = service.submit(graph, workload="tc")
        service.step()
        assert service.poll(running) is JobState.RUNNING
        service.shutdown()
        assert service.poll(running) is JobState.CANCELLED
        assert service.poll(queued) is JobState.CANCELLED

    def test_mid_job_service_shutdown_leaves_no_orphan_children(self):
        # the satellite regression test: shutdown from another thread
        # while a *native* job is mid-dispatch must ride the engine's
        # cooperative cancel + the supervisor's terminate+join+drain
        # teardown — afterwards there are zero live child processes
        graph = make_clustered_graph(n=220, m=4, seed=3)
        service = MiningService(ServiceConfig(native_worker_budget=2))
        config = repro.GMinerConfig(
            execution="native", native_chunk_size=4
        )
        handle = service.submit(graph, workload="tc", config=config,
                                name="doomed")
        timer = threading.Timer(0.05, service.shutdown)
        timer.start()
        try:
            service.run_until_idle()
        finally:
            timer.cancel()
            timer.join()
        assert service.poll(handle) in (JobState.CANCELLED, JobState.DONE)
        assert multiprocessing.active_children() == []


class TestTenantAccounting:
    @staticmethod
    def assert_counts_match_a_recount(service):
        recount = {}
        for record in service._records.values():
            if record.state in (JobState.QUEUED, JobState.RUNNING):
                tenant = record.handle.tenant
                recount[tenant] = recount.get(tenant, 0) + 1
        kept = {t: n for t, n in service._active_by_tenant.items() if n}
        assert kept == recount

    def test_active_counts_follow_every_terminal_transition(self):
        service = MiningService(
            ServiceConfig(max_running=2, slice_seconds=0.001, quantum_work_units=1.0)
        )
        graph = tc_graph()
        handles = [
            service.submit(graph, workload="tc", tenant="a"),
            service.submit(graph, workload="tc", tenant="b"),
            service.submit(graph, workload="tc", tenant="a", deadline=1e-6),
            service.submit(graph, workload="tc", tenant="b"),
        ]

        def fail_mid_run(*args, **kwargs):
            raise RuntimeError("injected mid-run failure")

        service._records[handles[3].job_id].job.advance = fail_mid_run
        self.assert_counts_match_a_recount(service)
        assert service.cancel(handles[1]) is True
        self.assert_counts_match_a_recount(service)
        service.run_until_idle()
        self.assert_counts_match_a_recount(service)
        assert [service.poll(h) for h in handles] == [
            JobState.DONE, JobState.CANCELLED, JobState.DEADLINE, JobState.FAILED,
        ]
        # shutdown settles one running and one queued job
        handles += [service.submit(graph, workload="tc", tenant="c") for _ in range(3)]
        service.step()
        self.assert_counts_match_a_recount(service)
        service.shutdown()
        self.assert_counts_match_a_recount(service)
        assert not any(service._active_by_tenant.values())
        assert JobState.CANCELLED in {service.poll(h) for h in handles[4:]}


# ----------------------------------------------------------------------
# native dispatch
# ----------------------------------------------------------------------


class TestNativeDispatch:
    def test_native_job_matches_standalone_and_respects_budget(self):
        graph = tc_graph(n=60)
        service = MiningService(ServiceConfig(native_worker_budget=2))
        handle = service.submit(
            graph, workload="tc", execution="native",
            config=repro.GMinerConfig(native_workers=16),
        )
        result = service.result(handle)
        solo = repro.mine(graph, workload="tc", execution="native")
        assert result.value == solo.value
        assert result.stats == solo.stats
        assert result.native["workers"] <= 2
        assert multiprocessing.active_children() == []

    def test_native_clock_charge_is_deterministic(self):
        graph = tc_graph(n=50)

        def run():
            service = MiningService()
            service.submit(graph, workload="tc", execution="native")
            service.run_until_idle()
            return service

        a, b = run(), run()
        assert a.schedule_log == b.schedule_log
        assert a.now == b.now


# ----------------------------------------------------------------------
# determinism: the 200-job trace replay
# ----------------------------------------------------------------------


def _trace_200():
    config = TrafficConfig(
        seed=17,
        duration=100.0,
        base_rate=2.2,
        bursts=((40.0, 8.0),),
        size_min=16,
        size_max=40,
        tenant_mix={"alpha": 2.0, "beta": 1.0, "gamma": 1.0},
    )
    trace = generate_trace(config)
    assert len(trace) >= 200, f"tune the trace: only {len(trace)} arrivals"
    return trace[:200]


class TestTraceReplay:
    def test_200_job_trace_is_schedule_deterministic_and_bit_identical(self):
        trace = _trace_200()
        service_config = ServiceConfig(
            max_queue_depth=256,
            max_inflight_per_tenant=64,
            tenant_weights={"alpha": 2.0},
        )

        def replay():
            service = MiningService(service_config)
            submitted = service.run_trace(trace, graph_for)
            return service, submitted

        first_service, first_submitted = replay()
        second_service, _ = replay()
        # byte-identical schedule across same-seed replays
        assert first_service.schedule_log == second_service.schedule_log
        assert first_service.now == second_service.now

        report = first_service.slo_report()
        assert report.jobs_submitted == 200
        assert report.jobs_completed == 200

        # every job's result is bit-identical to its standalone run
        for spec, handle in first_submitted:
            assert handle is not None
            solo = repro.mine(graph_for(spec), workload=spec.workload,
                              **spec.options)
            assert (
                first_service.result(handle).to_dict() == solo.to_dict()
            ), spec.name

    def test_schedule_log_carries_no_wall_clock(self):
        # every numeric field in the log derives from the virtual
        # clock/work units; a second run must reproduce them exactly
        # (this is implied by the test above but cheap to spot-check)
        trace = _trace_200()[:20]
        service = MiningService()
        service.run_trace(trace, graph_for)
        for entry in service.schedule_log:
            assert isinstance(entry[0], str)
            assert isinstance(entry[1], float)


# ----------------------------------------------------------------------
# traffic generation
# ----------------------------------------------------------------------


class TestTraffic:
    def test_same_seed_same_trace(self):
        config = TrafficConfig(seed=9, duration=60.0, bursts=((10.0, 5.0),))
        first = [s.jsonable() for s in generate_trace(config)]
        second = [s.jsonable() for s in generate_trace(config)]
        assert first == second

    def test_different_seeds_differ(self):
        base = dict(duration=60.0, base_rate=1.0)
        a = generate_trace(TrafficConfig(seed=1, **base))
        b = generate_trace(TrafficConfig(seed=2, **base))
        assert [s.jsonable() for s in a] != [s.jsonable() for s in b]

    def test_arrivals_ordered_bounded_and_sized(self):
        config = TrafficConfig(seed=4, duration=80.0, base_rate=1.5)
        trace = generate_trace(config)
        assert trace, "expected a non-empty trace"
        arrivals = [s.arrival for s in trace]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a < config.duration for a in arrivals)
        assert all(
            config.size_min <= s.size <= config.size_max for s in trace
        )

    def test_all_six_workloads_appear(self):
        trace = generate_trace(
            TrafficConfig(seed=2, duration=200.0, base_rate=2.0)
        )
        assert {s.workload for s in trace} == {
            "tc", "mcf", "gm", "gl", "cd", "gc"
        }

    def test_burst_window_raises_arrival_density(self):
        quiet = TrafficConfig(seed=3, duration=100.0, base_rate=0.5,
                              diurnal_amplitude=0.0)
        bursty = TrafficConfig(seed=3, duration=100.0, base_rate=0.5,
                               diurnal_amplitude=0.0,
                               bursts=((20.0, 20.0),), burst_rate=3.0)
        in_window = lambda t: sum(1 for s in t if 20.0 <= s.arrival < 40.0)
        assert in_window(generate_trace(bursty)) > in_window(
            generate_trace(quiet)
        )

    def test_heavy_tail_is_bounded(self):
        assert bounded_pareto(0.0, 1.5, 16, 96) == pytest.approx(16.0)
        assert bounded_pareto(0.999999, 1.5, 16, 96) <= 96.0

    def test_graph_for_decorates_per_workload(self):
        from repro.service.traffic import JobSpec

        gm = graph_for(JobSpec(0.0, "t", "normal", "gm", 24, 5, "gm-0"))
        assert gm.label(sorted(gm.vertices())[0]) is not None
        cd = graph_for(JobSpec(0.0, "t", "normal", "cd", 24, 5, "cd-0"))
        assert cd.attributes(sorted(cd.vertices())[0])

    @pytest.mark.parametrize(
        "bad",
        [
            dict(duration=0.0),
            dict(base_rate=-1.0),
            dict(diurnal_amplitude=1.5),
            dict(size_min=1),
            dict(size_min=50, size_max=40),
            dict(workload_mix={"zz": 1.0}),
            dict(priority_mix={"urgent": 1.0}),
            dict(tenant_mix={}),
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            TrafficConfig(**bad).validate()


# ----------------------------------------------------------------------
# SLO arithmetic
# ----------------------------------------------------------------------


class TestSLO:
    def test_nearest_rank_returns_observed_values(self):
        values = [5.0, 1.0, 3.0]
        assert nearest_rank(values, 0.5) == 3.0
        assert nearest_rank(values, 0.99) == 5.0
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank([], 0.5) == 0.0
        with pytest.raises(ValueError):
            nearest_rank(values, 1.5)

    def test_jain_index_range(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_report_roundtrips_and_renders(self):
        service = MiningService()
        graph = tc_graph()
        service.submit(graph, workload="tc", tenant="a")
        service.submit(graph, workload="tc", tenant="b", priority="high")
        service.run_until_idle()
        report = service.slo_report()
        payload = report.to_dict()
        assert payload["jobs_completed"] == 2
        assert payload["makespan"] > 0
        assert payload["goodput_work_units_per_second"] > 0
        assert set(payload["tenants"]) == {"a", "b"}
        assert report.completion_p50 <= report.completion_p99
        text = report.summary()
        assert "fairness" in text and "tenant a" in text


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


class TestServiceConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_queue_depth=0),
            dict(max_running=0),
            dict(slice_seconds=0.0),
            dict(quantum_work_units=-1.0),
            dict(native_worker_budget=0),
            dict(tenant_weights={"t": 0.0}),
        ],
    )
    def test_rejects_bad_knobs(self, bad):
        with pytest.raises(ValueError):
            ServiceConfig(**bad).validate()

    def test_unknown_handle_raises_key_error(self):
        from repro.service import JobHandle

        with pytest.raises(KeyError):
            MiningService().poll(JobHandle(99, "t", "normal", "x"))
