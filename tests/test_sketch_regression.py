"""Regression pins around the sketch backend's *boundaries*.

The approximation layer must be strictly additive: the exact backends
stay bit-identical whether or not a sketch run happened in the same
process, ``available_backends()`` (the value-identity contract every
exact suite iterates) never advertises the sketch family, the
``prepare_job`` gate keeps exact-only workloads exact, and
``GMinerConfig`` fails fast — with actionable messages — on every
meaningless sketch knob combination.
"""

import pytest

from repro import kernels
from repro.core.config import GMinerConfig
from repro.graph.generators import preferential_attachment_graph
from repro.plans.api import mine, prepare_job

pytestmark = pytest.mark.sketch


def small_graph():
    return preferential_attachment_graph(n=60, m=4, seed=3)


def _fingerprint(result):
    return (
        result.value,
        result.num_results,
        result.total_seconds,
        result.network_bytes,
        dict(sorted(result.stats.items())),
    )


class TestBackendRegistry:
    def test_sketch_excluded_from_available_backends(self):
        assert "sketch" not in kernels.available_backends()

    def test_sketch_loads_by_name(self):
        with kernels.use_backend("sketch"):
            assert kernels.get_backend() == "sketch"
        assert kernels.get_backend() != "sketch"


class TestExactPathsUndisturbed:
    def test_exact_run_identical_before_and_after_a_sketch_run(self):
        graph = small_graph()
        exact_config = GMinerConfig(kernel_backend="reference")
        before = mine(graph, workload="tc", config=exact_config)
        sketch = mine(
            graph,
            workload="tc",
            config=GMinerConfig(
                kernel_backend="sketch", accuracy=(0.1, 0.9), sketch_seed=2
            ),
        )
        assert sketch.estimate is not None
        after = mine(graph, workload="tc", config=exact_config)
        assert _fingerprint(before) == _fingerprint(after)
        # the sketch job's backend and params were scoped to the job
        assert kernels.get_backend() != "sketch"
        from repro.kernels.sketch import SketchParams, get_params

        assert get_params() == SketchParams()

    def test_exact_backends_agree_on_full_fingerprint(self):
        graph = small_graph()
        fingerprints = {
            backend: _fingerprint(
                mine(
                    graph,
                    workload="tc",
                    config=GMinerConfig(kernel_backend=backend),
                )
            )
            for backend in kernels.available_backends()
        }
        reference_fp = fingerprints["reference"]
        assert all(fp == reference_fp for fp in fingerprints.values())

    def test_exact_runs_carry_no_estimate(self):
        result = mine(
            small_graph(),
            workload="tc",
            config=GMinerConfig(kernel_backend="reference"),
        )
        assert result.estimate is None
        assert "estimate" not in result.to_dict()


class TestWorkloadGate:
    @pytest.mark.parametrize("workload", ["mcf", "gm", "gl"])
    def test_exact_only_workloads_rejected(self, workload):
        with pytest.raises(ValueError, match="exact-only"):
            prepare_job(small_graph(), workload=workload, backend="sketch")

    def test_pattern_plans_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            prepare_job(small_graph(), pattern="triangle", backend="sketch")

    @pytest.mark.parametrize("workload", ["tc", "cd", "gc"])
    def test_estimate_tolerant_workloads_accepted(self, workload):
        job = prepare_job(small_graph(), workload=workload, backend="sketch")
        assert job.config.kernel_backend == "sketch"


class TestConfigValidation:
    def test_accuracy_must_be_a_pair(self):
        with pytest.raises(ValueError, match="accuracy"):
            GMinerConfig(kernel_backend="sketch", accuracy=0.05)
        with pytest.raises(ValueError, match="accuracy"):
            GMinerConfig(kernel_backend="sketch", accuracy=(0.05, 0.95, 1))

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.0, "5%"])
    def test_bad_epsilon_fails_fast(self, epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            GMinerConfig(kernel_backend="sketch", accuracy=(epsilon, 0.95))

    @pytest.mark.parametrize("confidence", [0.4, 1.0, 95])
    def test_bad_confidence_fails_fast(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            GMinerConfig(kernel_backend="sketch", accuracy=(0.05, confidence))

    def test_bool_sketch_seed_rejected(self):
        with pytest.raises(ValueError, match="sketch_seed"):
            GMinerConfig(kernel_backend="sketch", sketch_seed=True)

    def test_sketch_knobs_rejected_on_exact_backends(self):
        with pytest.raises(ValueError, match="accuracy"):
            GMinerConfig(kernel_backend="reference", accuracy=(0.05, 0.95))
        with pytest.raises(ValueError, match="sketch_seed"):
            GMinerConfig(kernel_backend="reference", sketch_seed=7)

    def test_sketch_with_native_execution_rejected(self):
        with pytest.raises(ValueError, match="native"):
            GMinerConfig(kernel_backend="sketch", execution="native")

    def test_sketch_params_resolution(self):
        config = GMinerConfig(
            kernel_backend="sketch",
            accuracy=(0.1, 0.9),
            sketch_seed=5,
        )
        params = config.sketch_params()
        assert (params.epsilon, params.confidence) == (0.1, 0.9)
        assert params.seed == 5

    def test_sketch_params_default_accuracy(self):
        from repro.kernels.sketch import DEFAULT_ACCURACY

        params = GMinerConfig(kernel_backend="sketch").sketch_params()
        assert (params.epsilon, params.confidence) == DEFAULT_ACCURACY

    def test_sketch_params_none_on_exact_backends(self):
        assert GMinerConfig(kernel_backend="reference").sketch_params() is None
