"""Integration tests for ``repro.mine`` and the plan executor.

Three equivalence axes:

* built-in workloads through ``mine()`` are *bit-identical* to the
  legacy per-app job construction (full ``to_dict`` comparison, all
  three kernel backends);
* compiled plans agree with the legacy growers where the vocabulary
  overlaps (triangle count, tree-pattern matching);
* a non-built-in motif (the tailed triangle) runs end-to-end and
  agrees with the brute-force oracle, the sequential plan runner, and
  itself across backends — including under task splitting and under
  checkpointed worker failure;
* the shared-candidate / count-fusing step runner agrees in value
  *and* work units with the per-candidate executor it replaced, kept
  frozen here as the reference (hypothesis, all backends).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.apps import (
    CommunityDetectionApp,
    GraphClusteringApp,
    GraphletCountingApp,
    GraphMatchingApp,
    MaxCliqueApp,
    TriangleCountingApp,
    count_triangles,
    match_pattern,
)
from repro.core import GMinerConfig, GMinerJob, JobStatus
from repro.graph.generators import random_attributes
from repro.graph.graph import Graph
from repro.mining.cost import WorkMeter
from repro.mining.patterns import PAPER_PATTERN, make_pattern
from repro.native.runtime import execute_chunk, make_data_source
from repro.plans import (
    MOTIFS,
    PatternQuery,
    PlanApp,
    compile_pattern,
    count_embeddings_bruteforce,
    count_plan_sequential,
    mine,
    motif,
)
from repro.plans.executor import seed_admissible, step_needs_data
from repro.sim.failures import FailurePlan

from tests.conftest import make_clustered_graph

BACKENDS = ("reference", "numpy", "bitset")


@pytest.fixture(scope="module")
def mining_graph():
    """Small labelled + attributed graph every workload can run on."""
    graph = make_clustered_graph(labeled=True, n=48, m=3)
    random_attributes(graph, seed=7)
    return graph


def _legacy_app(workload, graph):
    if workload == "tc":
        return TriangleCountingApp()
    if workload == "mcf":
        return MaxCliqueApp()
    if workload == "gm":
        return GraphMatchingApp(PAPER_PATTERN)
    if workload == "gl":
        return GraphletCountingApp(k=4, classify=True)
    if workload == "cd":
        return CommunityDetectionApp(None)
    assert workload == "gc"
    exemplars = sorted(graph.vertices())[:3]
    return GraphClusteringApp([graph.attributes(v) for v in exemplars])


class TestMineAPI:
    def test_positional_arguments_rejected(self, tiny_graph):
        with pytest.raises(TypeError):
            mine(tiny_graph, "tc")

    def test_neither_pattern_nor_workload(self, tiny_graph):
        with pytest.raises(TypeError, match="exactly one"):
            mine(tiny_graph)

    def test_pattern_alongside_workload_is_a_workload_option(self, tiny_graph):
        # gm takes pattern=; tc takes no options, so it rejects by name
        with pytest.raises(TypeError, match="pattern"):
            mine(tiny_graph, pattern="triangle", workload="tc")

    def test_unknown_workload_lists_menu(self, tiny_graph):
        with pytest.raises(ValueError, match="tc"):
            mine(tiny_graph, workload="pagerank")

    def test_unknown_motif_lists_names(self, tiny_graph):
        with pytest.raises(ValueError, match="tailed-triangle"):
            mine(tiny_graph, pattern="pentagon")

    def test_unsupported_pattern_type(self, tiny_graph):
        with pytest.raises(TypeError, match="pattern"):
            mine(tiny_graph, pattern=3.14)

    def test_pattern_path_rejects_workload_options(self, tiny_graph):
        with pytest.raises(TypeError, match="k"):
            mine(tiny_graph, pattern="triangle", k=4)

    def test_workload_rejects_unknown_option(self, tiny_graph):
        # the error names the rejected option and lists what is accepted
        with pytest.raises(TypeError, match="depth.*classify"):
            mine(tiny_graph, workload="gl", depth=2)


class TestBuiltinEquivalence:
    """mine(workload=...) must be bit-identical to the legacy job."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workload", ["tc", "mcf", "gm", "gl", "cd", "gc"])
    def test_workload_matches_legacy_job(
        self, workload, backend, mining_graph, small_spec
    ):
        config = GMinerConfig(cluster=small_spec, kernel_backend=backend)
        legacy = GMinerJob(
            _legacy_app(workload, mining_graph), mining_graph, config
        ).run()
        modern = mine(mining_graph, workload=workload, config=config)
        assert legacy.status is JobStatus.OK
        assert modern.to_dict() == legacy.to_dict()

    def test_app_wrappers_route_through_mine(self, mining_graph, small_spec):
        config = GMinerConfig(cluster=small_spec)
        direct = mine(mining_graph, workload="tc", config=config)
        wrapped = count_triangles(mining_graph, config=config)
        assert wrapped.to_dict() == direct.to_dict()
        matched = match_pattern(
            mining_graph, pattern=PAPER_PATTERN, config=config
        )
        assert matched.to_dict() == mine(
            mining_graph, workload="gm", pattern=PAPER_PATTERN, config=config
        ).to_dict()


class TestCompiledVsLegacy:
    def test_triangle_plan_matches_tc(self, mining_graph, small_spec):
        config = GMinerConfig(cluster=small_spec)
        legacy = mine(mining_graph, workload="tc", config=config)
        compiled = mine(mining_graph, pattern="triangle", config=config)
        assert compiled.value == (legacy.value or 0)

    def test_tree_pattern_plan_matches_gm(self, mining_graph, small_spec):
        config = GMinerConfig(cluster=small_spec)
        legacy = mine(mining_graph, workload="gm", config=config)
        compiled = mine(mining_graph, pattern=PAPER_PATTERN, config=config)
        assert compiled.value == (legacy.value or 0)
        # …and the PatternQuery spelling is the same computation
        query = PatternQuery.from_tree(PAPER_PATTERN)
        requeried = mine(mining_graph, pattern=query, config=config)
        assert requeried.value == compiled.value


class TestCustomMotifEndToEnd:
    """The acceptance scenario: a non-built-in 4-node pattern."""

    def test_tailed_triangle_all_backends_agree_with_oracles(
        self, mining_graph, small_spec
    ):
        query = motif("tailed-triangle")
        expected = count_embeddings_bruteforce(query, mining_graph)
        assert expected > 0
        assert count_plan_sequential(
            compile_pattern(query), mining_graph
        ) == expected
        for backend in BACKENDS:
            config = GMinerConfig(cluster=small_spec, kernel_backend=backend)
            result = mine(mining_graph, pattern=query, config=config)
            assert result.status is JobStatus.OK
            assert result.value == expected, backend

    def test_precompiled_plan_accepted(self, mining_graph, small_spec):
        plan = compile_pattern(motif("tailed-triangle"))
        config = GMinerConfig(cluster=small_spec)
        result = mine(mining_graph, pattern=plan, config=config)
        assert result.value == count_plan_sequential(plan, mining_graph)

    def test_plan_survives_task_splitting(self, mining_graph, small_spec):
        baseline = mine(
            mining_graph,
            pattern="tailed-triangle",
            config=GMinerConfig(cluster=small_spec),
        )
        split_config = GMinerConfig(
            cluster=small_spec,
            enable_splitting=True,
            split_candidate_threshold=4,
        )
        split = mine(
            mining_graph, pattern="tailed-triangle", config=split_config
        )
        assert split.value == baseline.value

    def test_all_motifs_match_bruteforce(self, mining_graph, small_spec):
        config = GMinerConfig(cluster=small_spec)
        for name in ("4-cycle", "diamond", "3-path"):
            expected = count_embeddings_bruteforce(motif(name), mining_graph)
            result = mine(mining_graph, pattern=name, config=config)
            assert (result.value or 0) == expected, name


class TestPlanFaultTolerance:
    """Regression: a checkpoint can land between a task's final round
    and its completion callback; the snapshot must record the task as
    completed, not re-execute it after recovery."""

    @pytest.mark.parametrize("kill_fraction", [0.3, 0.6])
    def test_plan_survives_worker_failure(
        self, kill_fraction, mining_graph, small_spec
    ):
        config = GMinerConfig(
            cluster=small_spec,
            checkpoint_interval=0.02,
            time_limit=120.0,
        )
        clean = mine(mining_graph, pattern="tailed-triangle", config=config)
        assert clean.status is JobStatus.OK
        kill_at = clean.setup_seconds + clean.mining_seconds * kill_fraction
        plan = FailurePlan().kill(
            node_id=1, at_time=kill_at, recovery_delay=0.05
        )
        result = mine(
            mining_graph,
            pattern="tailed-triangle",
            config=config,
            failure_plan=plan,
        )
        assert result.status is JobStatus.OK
        assert result.value == clean.value


# ----------------------------------------------------------------------
# The per-candidate executor run_step replaced, frozen as the reference:
# one intersection per partial, one filter call per (partial, candidate).
# ----------------------------------------------------------------------


def _frozen_step_candidates(partial, step, data_of):
    arrays = [data_of(partial[q]).neighbors_array() for q in step.sources]
    scanned = sum(len(array) for array in arrays)
    arrays.sort(key=len)
    result = arrays[0]
    for array in arrays[1:]:
        result = kernels.intersect(result, array)
    if step.greater_than:
        result = kernels.slice_gt(
            result, max(partial[q] for q in step.greater_than)
        )
    return kernels.tolist(result), scanned


def _frozen_passes_filters(vid, partial, step, data_of):
    if vid in partial:
        return False
    for q in step.less_than:
        if vid >= partial[q]:
            return False
    if step.label is not None or step.predicates:
        data = data_of(vid)
        if step.label is not None and data.label != step.label:
            return False
        for op, value in step.predicates:
            if op == "has-attr" and value not in data.attributes:
                return False
    return True


def _frozen_count(plan, graph):
    """``(value, work units)`` of the frozen executor, seed scan excluded."""
    data_of = {v: graph.vertex_data(v) for v in graph.vertices()}.__getitem__
    total = units = 0
    for vid in sorted(graph.vertices()):
        if not seed_admissible(data_of(vid), plan):
            continue
        partials = [(vid,)]
        for step in plan.steps:
            extended = []
            for partial in partials:
                cands, scanned = _frozen_step_candidates(partial, step, data_of)
                units += scanned + len(cands)
                extended += [
                    partial + (cand,) for cand in cands
                    if _frozen_passes_filters(cand, partial, step, data_of)
                ]
            partials = extended
        total += len(partials)
    return total, units


def _runner_queries():
    tailed = motif("tailed-triangle")
    queries = [motif(name) for name in sorted(MOTIFS)]
    queries += [
        # label on the counted node and on an extended one
        PatternQuery(
            make_pattern("a", [("b", 0), ("*", 0)], [("a", 1)]),
            edges=((1, 2),), name="labelled",
        ),
        # has-attr on the counted node and on an extended one
        dataclasses.replace(
            tailed, predicates=((1, "has-attr", 1), (3, "has-attr", 2)),
            name="has-attr",
        ),
        # image(3) < image(0), image(1) < image(0): upper bounds on an
        # extend step and on the (structural) count step
        dataclasses.replace(tailed, orders=((3, 0), (1, 0)), name="upper"),
        dataclasses.replace(
            motif("3-star"), orders=((2, 1), (3, 0)), symmetry="none",
            name="upper-none",
        ),
        dataclasses.replace(motif("diamond"), symmetry="none", name="raw-diamond"),
        dataclasses.replace(motif("4-cycle"), symmetry="none", name="raw-cycle"),
        # structural counts whose partial holds images that are *not*
        # pattern-adjacent to the source: the probed half of the split
        PatternQuery(
            make_pattern("*", [("*", 0)], [("*", 0)], [("*", 0)]), name="4-path"
        ),
        PatternQuery.from_tree(
            make_pattern("*", [("*", 0), ("*", 0)], [("*", 1), ("*", 1)]),
            name="raw-tree",
        ),
    ]
    return [compile_pattern(query) for query in queries]


RUNNER_PLANS = _runner_queries()

runner_graphs = st.tuples(
    st.lists(
        # negative ids take the bitset backend's non-bitmap path;
        # (v, v) pairs check that Graph really drops self-loops
        st.tuples(st.integers(-2, 11), st.integers(-2, 11)),
        min_size=1, max_size=45,
    ),
    st.lists(st.sampled_from("abc"), min_size=14, max_size=14),
    st.lists(
        st.lists(st.integers(1, 3), max_size=2, unique=True),
        min_size=14, max_size=14,
    ),
)


class TestStepRunnerAgainstFrozenExecutor:
    def test_plans_cover_the_runner_branches(self):
        steps = [step for plan in RUNNER_PLANS for step in plan.steps]
        counts = [step for step in steps if step.counting]
        fused = [step for step in counts if not step_needs_data(step)]
        assert any(step.less_than for step in steps if not step.counting)
        assert any(step.less_than and step.certain for step in fused)
        assert any(step.greater_than and step.certain for step in fused)
        assert any(step.probed for step in fused)
        assert any(len(step.sources) > 1 for step in fused)
        assert any(step.label for step in counts)
        assert any(step.predicates for step in counts)
        for plan in RUNNER_PLANS:
            for position, step in enumerate(plan.steps, start=1):
                # certain and probed split exactly the earlier positions
                # that are neither a source nor an order bound
                decided = {*step.sources, *step.greater_than, *step.less_than}
                assert sorted(decided | {*step.certain, *step.probed}) == list(
                    range(position)
                )
                assert len(decided) + len(step.certain) + len(step.probed) == position

    @pytest.mark.property
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(runner_graphs)
    def test_value_and_work_units_match(self, drawn):
        edges, labels, attrs = drawn
        graph = Graph.from_edges(edges)
        for vid in graph.vertices():
            # the identity the count fusion rests on: v ∉ Γ(v)
            assert vid not in graph.neighbors(vid)
            graph.set_label(vid, labels[vid + 2])
            graph.set_attributes(vid, sorted(attrs[vid + 2]))
        vids = sorted(graph.vertices())
        for plan in RUNNER_PLANS:
            with kernels.use_backend("reference"):
                expected = _frozen_count(plan, graph)
            app = PlanApp(plan)
            scan = sum(app.seed_cost(graph.vertex_data(v)) for v in vids)
            for backend in kernels.available_backends():
                with kernels.use_backend(backend):
                    meter = WorkMeter()
                    value = count_plan_sequential(plan, graph, meter)
                    chunk = execute_chunk(
                        app, graph, 0, vids, make_data_source(graph)
                    )
                assert (value, meter.units) == expected, (plan.name, backend)
                assert (
                    sum(chunk.results), chunk.work_units - scan
                ) == expected, (plan.name, backend)
