"""Per-job deadlines: cooperative cancellation on both execution paths.

A set ``GMinerConfig.job_deadline`` (or the ``repro.mine(deadline=)``
shorthand) cancels a job with a structured
:class:`~repro.core.errors.JobDeadlineExceeded` — measured against the
*simulated* clock for ``execution="sim"`` and the wall clock for
``"native"`` — instead of letting it run on.  A deadline the job beats
must be perfectly invisible: the result is bit-identical to the
run without one (the deadline is a clamp on the run target, never a
scheduled event).
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro
from repro.core import GMinerConfig, GMinerJob
from repro.core.errors import JobCancelled, JobDeadlineExceeded

from .conftest import make_cluster_config, make_clustered_graph


def small_graph():
    return make_clustered_graph(n=60, m=4)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_config_rejects_non_positive_or_non_finite_deadline(bad):
    with pytest.raises(ValueError, match="job_deadline"):
        GMinerConfig(job_deadline=bad)


def test_mine_deadline_shorthand_is_validated_up_front(tiny_graph):
    with pytest.raises(ValueError, match="job_deadline"):
        repro.mine(tiny_graph, workload="tc", deadline=-2.0)


# ----------------------------------------------------------------------
# simulated path
# ----------------------------------------------------------------------


def test_sim_deadline_raises_structured_error():
    graph = small_graph()
    with pytest.raises(JobDeadlineExceeded) as excinfo:
        repro.mine(graph, workload="tc", deadline=1e-6,
                   config=make_cluster_config())
    err = excinfo.value
    assert err.clock == "simulated"
    assert err.deadline == 1e-6
    assert err.elapsed >= err.deadline
    assert "deadline" in str(err)


def test_sim_deadline_never_overshoots_the_simulated_clock():
    graph = small_graph()
    config = make_cluster_config(job_deadline=0.01)
    job = GMinerJob(repro.plans.builtins.builtin_plan("tc").build_app(graph),
                    graph, config)
    with pytest.raises(JobDeadlineExceeded):
        job.run()
    # the deadline is a clamp on the run target: the simulator stops
    # exactly at the deadline, never past it
    assert job.sim_now == pytest.approx(0.01)


def test_generous_deadline_is_bit_identical_to_no_deadline():
    graph = small_graph()
    plain = repro.mine(graph, workload="tc", config=make_cluster_config())
    capped = repro.mine(graph, workload="tc", deadline=1e9,
                        config=make_cluster_config())
    assert capped.to_dict() == plain.to_dict()


def test_deadline_via_config_field_matches_shorthand():
    graph = small_graph()
    config = make_cluster_config(job_deadline=1e-6)
    with pytest.raises(JobDeadlineExceeded):
        repro.mine(graph, workload="tc", config=config)


# ----------------------------------------------------------------------
# native path
# ----------------------------------------------------------------------


#: One worker runs in-process, two in the supervised pool.  Each native
#: test runs both; small chunks so the 60-vertex test graph really fans
#: out to two workers.
NATIVE_WORKERS = (1, 2)


def native_config(workers):
    return GMinerConfig(native_workers=workers, native_chunk_size=16)


def test_native_deadline_is_wall_clock_and_leaves_no_children():
    graph = small_graph()
    for workers in NATIVE_WORKERS:
        with pytest.raises(JobDeadlineExceeded) as excinfo:
            repro.mine(
                graph, workload="tc", execution="native", deadline=1e-9,
                config=native_config(workers),
            )
        assert excinfo.value.clock == "wall-clock", workers
        assert multiprocessing.active_children() == [], workers


def test_native_cancel_event_raises_and_leaves_no_children():
    import threading

    from repro.plans.api import prepare_job

    graph = small_graph()
    for workers in NATIVE_WORKERS:
        job = prepare_job(
            graph, workload="tc", execution="native", config=native_config(workers)
        )
        job.cancel_event = threading.Event()
        job.cancel_event.set()  # pre-set: the first checkpoint fires
        with pytest.raises(JobCancelled):
            job.run()
        assert multiprocessing.active_children() == [], workers


def test_native_generous_deadline_matches_undeadlined_run():
    graph = small_graph()
    for workers in NATIVE_WORKERS:
        config = native_config(workers)
        plain = repro.mine(graph, workload="tc", execution="native", config=config)
        capped = repro.mine(
            graph, workload="tc", execution="native", deadline=1e9, config=config
        )
        assert capped.native["workers"] == workers
        assert capped.value == plain.value, workers
        assert capped.stats == plain.stats, workers
