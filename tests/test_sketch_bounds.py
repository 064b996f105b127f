"""Statistical acceptance suite for the sketch backend.

The approximation contract, checked empirically: over a population of
seeded sketch draws on a graph *dense enough that sketches genuinely
subsample* (degrees well above the register count), the observed
relative error must sit within the accuracy knob's epsilon at roughly
the stated confidence — with explicit slack, because a finite seeded
population of a correctly-calibrated estimator still misses sometimes,
and this suite must be deterministic.  Alongside the error law: exact
reproducibility per sketch seed, the end-to-end ``JobResult.estimate``
surface, exactness degradation on sparse graphs, and bit-equality with
the exact backends on the threshold-certified workloads (cd, gc).
"""

import functools

import pytest

from repro import kernels
from repro.apps import CommunityDetectionApp, GraphClusteringApp
from repro.core.config import GMinerConfig
from repro.core.job import GMinerJob
from repro.graph.generators import (
    preferential_attachment_graph,
    random_attributes,
)
from repro.kernels.sketch import SketchParams, use_params
from repro.mining.cost import WorkMeter
from repro.mining.triangles import (
    triangle_count_estimate_sequential,
    triangle_count_sequential,
)
from repro.plans.api import mine
from repro.verify.approx import observed_error
from repro.verify.metamorphic import normalize_value

pytestmark = pytest.mark.sketch

#: Slack below the nominal confidence the empirical coverage may sit:
#: ~15 seeded draws of a well-calibrated 90/95% interval can honestly
#: miss twice; the planted-mutant tests show gross violations still fail.
COVERAGE_SLACK = 0.15

SKETCH_SEEDS = range(15)


@functools.lru_cache(maxsize=None)
def dense_graph():
    """Average degree ≈ 130 — far above every accuracy knob's k."""
    return preferential_attachment_graph(n=300, m=100, seed=11)


@functools.lru_cache(maxsize=None)
def dense_adjacency():
    graph = dense_graph()
    return {v: graph.neighbors(v) for v in graph.vertices()}


@functools.lru_cache(maxsize=None)
def denser_adjacency():
    """Average degree ≈ 240: where the headline >=2x work claim is made."""
    graph = preferential_attachment_graph(n=400, m=140, seed=7)
    return {v: graph.neighbors(v) for v in graph.vertices()}


@functools.lru_cache(maxsize=None)
def exact_triangles():
    with kernels.use_backend("bitset"):
        return triangle_count_sequential(dense_adjacency(), WorkMeter())


def _estimate(params, adjacency=None):
    with kernels.use_backend("sketch"), use_params(params):
        meter = WorkMeter()
        est = triangle_count_estimate_sequential(
            adjacency or dense_adjacency(), meter
        )
    return est, meter.units


class TestErrorLaw:
    @pytest.mark.parametrize(
        "epsilon,confidence", [(0.1, 0.90), (0.05, 0.95)]
    )
    def test_observed_error_within_epsilon_at_confidence(
        self, epsilon, confidence
    ):
        exact = exact_triangles()
        covered = within = 0
        errors = []
        for seed in SKETCH_SEEDS:
            est, _ = _estimate(
                SketchParams(epsilon=epsilon, confidence=confidence, seed=seed)
            )
            assert not est.exact  # the graph must defeat full capture
            error = observed_error(exact, est.point)
            errors.append(error)
            covered += est.lo <= exact <= est.hi
            within += error <= epsilon
        floor = confidence - COVERAGE_SLACK
        n = len(errors)
        assert covered / n >= floor, (
            f"CI coverage {covered}/{n} below {floor:.2f} "
            f"at accuracy=({epsilon}, {confidence})"
        )
        assert within / n >= floor, (
            f"within-epsilon rate {within}/{n} below {floor:.2f} "
            f"at accuracy=({epsilon}, {confidence})"
        )
        assert sum(errors) / n <= epsilon, (
            f"mean relative error {sum(errors) / n:.4f} exceeds "
            f"epsilon={epsilon}"
        )

    def test_work_drops_as_epsilon_grows(self):
        # the whole point of approximating: coarser accuracy, less work
        _, work_fine = _estimate(SketchParams(epsilon=0.05, confidence=0.95))
        _, work_coarse = _estimate(SketchParams(epsilon=0.1, confidence=0.9))
        with kernels.use_backend("bitset"):
            exact_meter = WorkMeter()
            triangle_count_sequential(dense_adjacency(), exact_meter)
        assert work_coarse < work_fine < exact_meter.units
        # this graph supports ~1.9x; the headline >=2x claim is checked
        # on a denser graph by the next test
        assert exact_meter.units / work_fine >= 1.5

    @pytest.mark.parametrize(
        "epsilon,confidence", [(0.1, 0.90), (0.05, 0.95), (0.02, 0.99)]
    )
    def test_denser_graph_within_epsilon_and_work_halved(
        self, epsilon, confidence
    ):
        adjacency = denser_adjacency()
        with kernels.use_backend("bitset"):
            exact_meter = WorkMeter()
            exact = triangle_count_sequential(adjacency, exact_meter)
        est, work = _estimate(
            SketchParams(epsilon=epsilon, confidence=confidence, seed=0),
            adjacency,
        )
        assert not est.exact
        assert observed_error(exact, est.point) <= epsilon
        # the headline claim: from the default accuracy up, under half
        # the exact work; at (0.02, 0.99) k covers most neighbourhoods
        # and no reduction is claimed
        if epsilon >= 0.05:
            assert exact_meter.units / work >= 2.0


class TestReproducibility:
    def test_bit_identical_per_sketch_seed(self):
        params = SketchParams(epsilon=0.05, confidence=0.95, seed=7)
        (est_a, work_a), (est_b, work_b) = _estimate(params), _estimate(params)
        assert est_a == est_b
        assert work_a == work_b

    def test_different_sketch_seeds_differ(self):
        est_a, _ = _estimate(SketchParams(epsilon=0.05, confidence=0.95, seed=1))
        est_b, _ = _estimate(SketchParams(epsilon=0.05, confidence=0.95, seed=2))
        assert est_a.point != est_b.point


class TestEndToEnd:
    GRAPH = staticmethod(
        functools.lru_cache(maxsize=None)(
            lambda: preferential_attachment_graph(n=150, m=60, seed=7)
        )
    )

    def _mine(self, **overrides):
        config = GMinerConfig(
            kernel_backend="sketch",
            accuracy=(0.05, 0.95),
            sketch_seed=3,
        ).replace(**overrides)
        return mine(self.GRAPH(), workload="tc", config=config)

    def test_jobresult_estimate_surface(self):
        result = self._mine()
        report = result.estimate
        assert report is not None
        assert result.value == int(round(report.point))
        assert report.ci_low <= report.point <= report.ci_high
        assert (report.epsilon, report.confidence) == (0.05, 0.95)
        assert report.method == "minhash" and report.sketch_seed == 3
        out = result.to_dict()
        assert out["estimate"] == report.to_dict()

    def test_estimate_brackets_exact_value(self):
        exact = mine(
            self.GRAPH(), workload="tc", config=GMinerConfig(kernel_backend="bitset")
        )
        result = self._mine()
        report = result.estimate
        assert report.ci_low <= exact.value <= report.ci_high
        assert observed_error(exact.value, report.point) <= 0.05
        # and the whole run was cheaper than the exact one (the >=2x
        # reduction claim is the bench's, on its denser graph)
        assert result.stats["work_units"] < exact.stats["work_units"]

    def test_same_config_reruns_identically(self):
        first, second = self._mine(), self._mine()
        assert first.value == second.value
        assert first.estimate == second.estimate
        assert first.stats == second.stats

    def test_sketch_seed_changes_the_draw(self):
        assert (
            self._mine().estimate.point
            != self._mine(sketch_seed=4).estimate.point
        )


class TestSparseGraphsDegradeToExact:
    def test_estimate_is_exact_when_sketches_capture_everything(self):
        graph = preferential_attachment_graph(n=80, m=3, seed=5)
        exact = mine(
            graph, workload="tc", config=GMinerConfig(kernel_backend="reference")
        )
        approx = mine(
            graph,
            workload="tc",
            config=GMinerConfig(
                kernel_backend="sketch", accuracy=(0.05, 0.95)
            ),
        )
        assert approx.estimate is not None and approx.estimate.exact
        assert approx.value == exact.value
        assert approx.estimate.ci_low == approx.estimate.ci_high


@functools.lru_cache(maxsize=None)
def attributed_graph():
    graph = preferential_attachment_graph(n=90, m=4, seed=21)
    random_attributes(graph, seed=9)
    return graph


class TestThresholdCertifiedWorkloads:
    """cd/gc attribute lists are far smaller than any sketch, so the
    sketch path's threshold decisions are provably exact — results must
    match the exact backends bit-for-bit."""

    def _run(self, app_factory, backend, **sketch_fields):
        graph = attributed_graph()
        config = GMinerConfig(kernel_backend=backend, **sketch_fields)
        return GMinerJob(app_factory(graph), graph, config).run()

    def test_cd_matches_exact(self):
        make = lambda graph: CommunityDetectionApp()
        exact = self._run(make, "reference")
        approx = self._run(
            make, "sketch", accuracy=(0.1, 0.9), sketch_seed=5
        )
        assert normalize_value("cd", approx.value) == normalize_value(
            "cd", exact.value
        )
        assert approx.num_results == exact.num_results

    def test_gc_matches_exact(self):
        def make(graph):
            exemplars = sorted(graph.vertices())[:3]
            return GraphClusteringApp(
                [graph.attributes(e) for e in exemplars]
            )

        exact = self._run(make, "reference")
        approx = self._run(
            make, "sketch", accuracy=(0.1, 0.9), sketch_seed=5
        )
        assert normalize_value("gc", approx.value) == normalize_value(
            "gc", exact.value
        )
        assert approx.num_results == exact.num_results
