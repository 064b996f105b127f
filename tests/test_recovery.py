"""The §7 recovery collaborator (``repro.core.recovery``).

A job builds it only when it has a failure plan or a
``checkpoint_interval``; a checkpoint-only job takes snapshots but runs
none of the degraded-mode protocol; versioned membership notices are
applied in view order.
"""

from __future__ import annotations

import pytest

from repro.apps import TriangleCountingApp
from repro.core import GMinerConfig, GMinerJob, JobStatus
from repro.core.messages import MembershipView, WorkerDown, WorkerUp
from repro.core.recovery import MasterRecovery
from repro.graph.algorithms import triangle_count_exact
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan

from .conftest import make_clustered_graph


@pytest.fixture
def config(small_spec):
    return GMinerConfig(cluster=small_spec, time_limit=120.0)


def test_fault_free_job_builds_no_recovery(small_social_graph, config):
    job = GMinerJob(TriangleCountingApp(), small_social_graph, config)
    assert job.run().status is JobStatus.OK
    assert job.recovery is None
    assert job.master.recovery is None
    assert all(worker.recovery is None for worker in job.workers)


def test_checkpoint_only_job_runs_no_protocol(small_social_graph, config, monkeypatch):
    monitor_ticks = []
    monkeypatch.setattr(
        MasterRecovery, "_monitor_tick", lambda self: monitor_ticks.append(self)
    )
    plain = GMinerJob(TriangleCountingApp(), small_social_graph, config).run()
    job = GMinerJob(
        TriangleCountingApp(),
        small_social_graph,
        config.replace(checkpoint_interval=0.02),
    )
    result = job.run()
    assert result.status is JobStatus.OK
    assert all(worker.recovery is not None for worker in job.workers)
    assert result.stats["checkpoints"] > 0
    assert result.stats["heartbeats_sent"] == 0
    assert result.stats["rpc_retries"] == 0
    assert result.value == plain.value
    assert result.stats["work_units"] == plain.stats["work_units"]
    master_recovery = job.master.recovery
    assert master_recovery.checkpoint_epoch > 0
    assert not monitor_ticks
    assert not master_recovery.last_heard


def test_checkpoint_only_job_logs_no_migrated_tasks(small_social_graph, config):
    # skewed single-core workers with tiny store blocks steal tasks
    job = GMinerJob(
        TriangleCountingApp(),
        small_social_graph,
        config.replace(
            cluster=ClusterSpec(num_nodes=4, cores_per_node=1),
            partitioner="bdg",
            store_block_tasks=2,
            steal_batch=4,
            steal_local_rate_threshold=2.0,
            steal_cost_threshold=1e9,
            steal_retry_interval=0.002,
            checkpoint_interval=0.01,
        ),
    )
    result = job.run()
    assert result.status is JobStatus.OK
    assert result.stats["tasks_migrated"] > 0
    assert all(not worker.recovery.sent_tasks for worker in job.workers)


def test_failure_during_a_store_block_load_does_not_wedge_the_store():
    # worker 0 dies while its task store is loading a block from disk;
    # the load's callback never fires on the dead node, so the restore
    # must not inherit the in-flight load
    graph = make_clustered_graph()
    config = GMinerConfig(
        cluster=ClusterSpec(num_nodes=4, cores_per_node=1),
        partitioner="bdg",
        store_block_tasks=2,
        steal_batch=4,
        steal_local_rate_threshold=2.0,
        steal_cost_threshold=1e9,
        steal_retry_interval=0.002,
        checkpoint_interval=0.01,
        time_limit=20.0,
    )
    plan = FailurePlan(seed=0).kill(0, at_time=0.0605, recovery_delay=0.05)
    result = GMinerJob(TriangleCountingApp(), graph, config, failure_plan=plan).run()
    assert result.status is JobStatus.OK
    assert result.value == triangle_count_exact(graph) == 726


def test_stale_membership_view_is_ignored(small_social_graph, config):
    """A notice at or below the applied view cannot re-bury a recovered
    peer; the next newer view re-issues the pulls parked for it."""
    job = GMinerJob(
        TriangleCountingApp(), small_social_graph, config, failure_plan=FailurePlan()
    )
    job.begin()
    worker, peer = job.workers[0], 1
    recovery = worker.recovery
    recovery.on_message(WorkerDown(worker=peer, view=1))
    assert recovery.down_workers == {peer}
    until = job.sim_now
    while not recovery.parked:
        until += 0.002
        assert until < 1.0, "no pull to the down peer was ever parked"
        job.advance(until=until)
    parked = set().union(*recovery.parked.values())
    assert all(job.assignment.owner_of(vid) == peer for vid in parked)
    pulls = worker.stats.pulls_sent

    recovery.on_message(WorkerUp(worker=peer, view=1))  # stale: view 1 applied
    assert recovery.down_workers == {peer}
    assert worker.stats.pulls_sent == pulls

    recovery.on_message(WorkerUp(worker=peer, view=2))
    assert not recovery.down_workers
    assert not recovery.parked
    assert worker.stats.pulls_sent == pulls + 1  # one RPC for every parked vid

    recovery.on_message(WorkerDown(worker=peer, view=1))  # reordered straggler
    assert not recovery.down_workers

    job.advance()
    result = job.complete()
    assert result.status is JobStatus.OK
    assert result.value == triangle_count_exact(small_social_graph)


def test_full_view_heals_a_notice_lost_before_a_newer_one(small_social_graph, config):
    """``WorkerUp(1, view=3)`` is lost and ``WorkerUp(2, view=4)`` is
    applied on top of the stale base: the gossiped full view 4 must
    still re-admit worker 1 rather than be dropped as already seen."""
    job = GMinerJob(
        TriangleCountingApp(), small_social_graph, config, failure_plan=FailurePlan()
    )
    job.begin()
    recovery = job.workers[0].recovery
    recovery.on_message(WorkerDown(worker=1, view=1))
    recovery.on_message(WorkerDown(worker=2, view=2))
    recovery.on_message(WorkerUp(worker=2, view=4))
    assert recovery.down_workers == {1}
    recovery.on_message(MembershipView(down=(), view=4))
    assert not recovery.down_workers
