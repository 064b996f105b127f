"""Tests for the differential fuzzer (repro.verify.fuzz).

The headline requirement: a planted result-divergence bug — a triangle
count silently inflated for a sliver of seed vertices — must be caught
at a fixed fuzz seed and shrunk to a small (≤ 32 vertex) replayable
case.  Plus: clean runs find nothing, repro files round-trip through
``--replay``, and case generation is deterministic.
"""

import dataclasses
import itertools
import json
import pathlib

import pytest

from repro.apps.triangle_counting import TCTask
from repro.verify import fuzz
from repro.verify.metamorphic import normalize_value, permute_graph

pytestmark = pytest.mark.fuzz


# A seed whose generated case uses the tc workload.  Seeds with
# vid % 17 == 3 exist in every generated graph (16+ consecutive vids),
# so the planted mutant below fires on any tc case.
TC_SEED = next(
    seed for seed in range(100)
    if fuzz.generate_case(seed)["workload"] == "tc"
)


@pytest.fixture
def planted_divergence(monkeypatch):
    """Inflate the triangle count for seeds with vid % 17 == 3.

    Both distributed backends inherit the bug identically, so they agree
    with each other — only the sequential oracle exposes it.  Induced
    subgraphs keep original vertex ids, so the bug survives shrinking.
    """
    original = TCTask.update

    def tampered(self, cand_objs, env):
        original(self, cand_objs, env)
        if self.seed.vid % 17 == 3 and self.result is not None:
            self.result += 1

    monkeypatch.setattr(TCTask, "update", tampered)


DATA = pathlib.Path(__file__).parent / "data"


def roomy_tc_case(**armed):
    """The first tc case without its tight-cache knob (with it, the
    plan legs livelock: TestTimeCap), with the given axes armed."""
    case = fuzz.generate_case(TC_SEED)
    case["config"].pop("cache_capacity_bytes", None)
    return {**case, **armed}


class TestCaseGeneration:
    def test_deterministic(self):
        assert fuzz.generate_case(12) == fuzz.generate_case(12)
        assert fuzz.generate_case(12) != fuzz.generate_case(13)

    def test_case_is_json_round_trippable(self):
        case = fuzz.generate_case(5)
        assert json.loads(json.dumps(case)) == case

    def test_graph_reconstruction(self):
        case = fuzz.generate_case(7)
        graph = fuzz.graph_from_case(case)
        assert sorted(graph.vertices()) == case["vertices"]
        assert graph.num_edges == len(case["edges"])

    def test_all_workloads_reachable(self):
        seen = {fuzz.generate_case(s)["workload"] for s in range(60)}
        assert seen == {"tc", "mcf", "gm", "cd", "gc"}


class TestCleanRuns:
    def test_clean_case_has_no_mismatches(self):
        assert fuzz.check_case(fuzz.generate_case(TC_SEED)) == []

    def test_cli_smoke_clean(self, tmp_path, capsys):
        rc = fuzz.main([
            "--iterations", "5", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert not list(tmp_path.glob("*.json"))
        assert "5 case(s), 0 failure(s)" in capsys.readouterr().out


class TestPlantedDivergence:
    def test_detected_at_fixed_seed(self, planted_divergence):
        mismatches = fuzz.check_case(fuzz.generate_case(TC_SEED))
        assert mismatches
        assert any("oracle" in m for m in mismatches)

    def test_shrinks_to_small_case(self, planted_divergence):
        case = fuzz.generate_case(TC_SEED)
        shrunk = fuzz.shrink_case(case)
        assert len(shrunk["vertices"]) <= 32
        assert fuzz.check_case(shrunk)  # still failing after shrink

    def test_repro_file_round_trip(self, planted_divergence, tmp_path):
        case = fuzz.generate_case(TC_SEED)
        mismatches = fuzz.check_case(case)
        path = fuzz.save_repro(case, mismatches, str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == fuzz.SCHEMA
        assert doc["mismatches"] == mismatches
        # replay agrees the bug is still live
        assert fuzz.replay(path) == 1

    def test_cli_catches_and_persists(self, planted_divergence, tmp_path, capsys):
        rc = fuzz.main([
            "--iterations", str(TC_SEED + 1), "--seed", "0",
            "--out", str(tmp_path), "--no-shrink",
        ])
        assert rc == 1
        assert list(tmp_path.glob("fuzz-repro-*.json"))
        assert "MISMATCH" in capsys.readouterr().out


class TestNativeAxis:
    def test_clean_case_passes_native_axis(self):
        case = fuzz.generate_case(TC_SEED)
        case["native_axis"] = True
        assert fuzz.check_case(case) == []

    def test_fault_free_case_strips_chaos(self):
        case = fuzz.generate_case(TC_SEED)
        case["failure_plan"] = {"seed": 1, "kills": [], "lossy": []}
        case["config"] = dict(case["config"], checkpoint_interval=0.02)
        pure = fuzz.fault_free_case(case)
        assert pure["failure_plan"] is None
        assert "checkpoint_interval" not in pure["config"]
        # the original case is untouched
        assert case["failure_plan"] is not None

    def test_native_axis_detects_divergence(self, planted_divergence):
        # the planted tc bug lives in TCTask.update, which the native
        # engine executes too — but the single-thread oracle does not,
        # so the native-vs-sim value check alone would agree; the axis
        # still runs, and the triad's oracle check reports the bug
        case = fuzz.generate_case(TC_SEED)
        case["native_axis"] = True
        mismatches = fuzz.check_case(case)
        assert any("oracle" in m for m in mismatches)

    def test_native_axis_detects_native_only_divergence(self, monkeypatch):
        """A bug only the native engine has is caught by the axis."""
        from repro.native import engine as native_engine

        original = native_engine.run_native

        def tampered(app, graph, *args, **kwargs):
            result = original(app, graph, *args, **kwargs)
            if result.value is not None:
                result.value += 1
            return result

        monkeypatch.setattr(native_engine, "run_native", tampered)
        # the dispatch in GMinerJob.run imports lazily from repro.native
        import repro.native

        monkeypatch.setattr(repro.native, "run_native", tampered)
        case = fuzz.generate_case(TC_SEED)
        mismatches = fuzz.check_native_axis(case, None)
        assert any("native" in m for m in mismatches)

    def test_cli_native_axis_smoke(self, tmp_path, capsys):
        rc = fuzz.main([
            "--iterations", "2", "--seed", "3",
            "--out", str(tmp_path), "--native-axis",
        ])
        assert rc == 0
        assert "2 case(s), 0 failure(s)" in capsys.readouterr().out


class TestPlanAxis:
    def test_detects_miscounting_plan_executor(self, monkeypatch):
        """A bug only compiled plans have: the legacy grower and the
        triad stay right, the brute-force embedding oracle tells."""
        from repro.plans import PlanApp

        original = PlanApp.combine_results
        monkeypatch.setattr(
            PlanApp, "combine_results",
            lambda self, results: original(self, results) + 1,
        )
        mismatches = fuzz.check_case(roomy_tc_case(plan_axis=True))
        assert any("brute-force oracle says" in m for m in mismatches)


class TestNativeChaosAxis:
    def test_chaos_plan_budgets_cover_its_schedule(self):
        """The plan is survivable by construction against the budgets it
        carries: every worker it can kill or hang is one respawn, every
        flaky chunk's failures fit the retry budget, and a hang until
        terminated meets a lease short enough for fuzz time."""
        for seed in range(300):
            plan = fuzz.chaos_plan_for_case({"seed": seed})
            plan.validate()
            # the budgets the chaos leg has always run under
            assert (plan.chunk_deadline, plan.max_chunk_retries,
                    plan.max_respawns) == (0.5, 10, 2), seed
            targets = {spec.worker for spec in plan.crashes + plan.hangs}
            assert None not in targets, seed
            assert len(targets) <= plan.max_respawns, seed
            assert all(
                spec.failures <= plan.max_chunk_retries for spec in plan.flaky
            ), seed
            if any(spec.duration is None for spec in plan.hangs):
                assert plan.chunk_deadline < 1.0, seed

    def test_detects_unsurvived_schedule(self, monkeypatch):
        """A chunk that fails more often than the retry budget covers
        must surface as a mismatch, not as a crash of the fuzzer."""
        from repro.native import NativeFaultPlan

        monkeypatch.setattr(
            fuzz, "chaos_plan_for_case",
            lambda case: NativeFaultPlan(seed=0).flaky_chunk(0, failures=50),
        )
        mismatches = fuzz.check_case(roomy_tc_case(native_chaos=True))
        assert any(
            "survivable schedule was not survived" in m for m in mismatches
        )


class TestServiceAxis:
    def test_detects_result_tampering(self, monkeypatch):
        """A service that hands back anything but the job's own result
        diverges from standalone mine() on every copy."""
        from repro.service import MiningService

        original = MiningService.result

        def tampered(self, handle, drive=True):
            result = original(self, handle, drive)
            return dataclasses.replace(result, num_results=result.num_results + 1)

        monkeypatch.setattr(MiningService, "result", tampered)
        mismatches = fuzz.check_case(roomy_tc_case(service_axis=True))
        hits = [m for m in mismatches if "diverged from standalone mine()" in m]
        assert len(hits) == 3

    def test_detects_nondeterministic_schedule_log(self, monkeypatch):
        """Anything process-global leaking into the schedule log breaks
        the same-seed-epochs-are-byte-identical contract."""
        from repro.service import MiningService

        original = MiningService._log
        leak = itertools.count()

        def leaky(self, kind, *fields):
            original(self, kind, *fields, next(leak))

        monkeypatch.setattr(MiningService, "_log", leaky)
        mismatches = fuzz.check_case(roomy_tc_case(service_axis=True))
        assert any("different schedule logs" in m for m in mismatches)


class TestAxisRegistry:
    def test_every_axis_documents_itself_in_help(self, capsys):
        with pytest.raises(SystemExit):
            fuzz.main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for axis in fuzz.AXES:
            assert axis.check.__doc__, axis.name
            assert "--" + axis.name.replace("_", "-") in text
            # argparse re-wraps at hyphens too; compare without spaces
            stated = "".join(axis.check.__doc__.split())
            assert stated in text.replace(" ", ""), axis.name

    def test_docs_table_states_each_contract_once(self):
        """docs/testing.md tabulates AXES: the row text is the docstring."""
        doc = (DATA.parent.parent / "docs" / "testing.md").read_text(encoding="utf-8")
        doc = " ".join(doc.split())
        for axis in fuzz.AXES:
            assert doc.count(" ".join(axis.check.__doc__.split())) == 1, axis.name

    def test_parent_repro_replays_with_its_axis_armed(self, monkeypatch):
        """A ``repro.verify.fuzz/1`` file written before AXES existed
        still arms the axis its ``"native_axis": true`` key names."""
        case = json.loads((DATA / "fuzz-repro-native-axis-pr22.json").read_text())
        assert case["schema"] == fuzz.SCHEMA and case["native_axis"] is True
        armed = []
        monkeypatch.setattr(
            fuzz, "AXES",
            tuple(
                fuzz.Axis(a.name, lambda case, exact, n=a.name: armed.append(n) or [])
                for a in fuzz.AXES
            ),
        )
        assert fuzz.check_case(case) == []
        assert armed == ["native_axis"]
        armed.clear()
        assert fuzz.check_case(case, axes=["sketch_axis", "plan_axis"]) == []
        assert armed == ["plan_axis", "sketch_axis"]


class TestTimeCap:
    def test_livelocked_leg_is_a_reported_timeout(self, monkeypatch):
        """The repro's plan leg never finishes; the cap turns that into
        a mismatch line (a short cap here: the verdict is the same)."""
        monkeypatch.setattr(fuzz, "SIM_TIME_CAP", 0.5)
        case = json.loads((DATA / "fuzz-repro-plan-livelock.json").read_text())
        mismatches = fuzz.check_case(case)
        assert mismatches == [
            "plan axis [tailed-triangle] did not complete: timeout"
        ]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the tailed-triangle plan livelocks under "
        "a tight fifo/lru cache (re-pulls grow without bound)",
    )
    def test_livelock_repro_is_fixed(self, monkeypatch):
        monkeypatch.setattr(fuzz, "SIM_TIME_CAP", 0.5)
        case = json.loads((DATA / "fuzz-repro-plan-livelock.json").read_text())
        assert fuzz.check_case(case) == []


class TestSketchAxis:
    EXACT_ONLY_SEED = next(
        seed for seed in range(100)
        if fuzz.generate_case(seed)["workload"] in ("mcf", "gm")
    )

    def test_clean_case_passes_sketch_axis(self):
        case = fuzz.generate_case(TC_SEED)
        case["sketch_axis"] = True
        assert fuzz.check_case(case) == []

    def test_settings_are_deterministic_and_pinnable(self):
        case = fuzz.generate_case(TC_SEED)
        assert fuzz.sketch_settings_for_case(case) == (
            fuzz.sketch_settings_for_case(dict(case))
        )
        pinned = dict(case, accuracy=[0.02, 0.99], sketch_seed=123)
        assert fuzz.sketch_settings_for_case(pinned) == ((0.02, 0.99), 123)

    def test_exact_only_workload_asserts_the_gate(self):
        case = fuzz.generate_case(self.EXACT_ONLY_SEED)
        assert fuzz.check_sketch_axis(case, None) == []

    def test_detects_out_of_bounds_estimator(self, monkeypatch):
        """A planted estimator bug — points biased upward while the CI
        stays put — must trip the bounded-error contract."""
        from repro.kernels import sketch as sketch_mod

        original = sketch_mod.intersect_count_many_estimate

        def inflated(arrays, target):
            # bias every batch estimate upward, shifting the interval
            # along with the point so only the vs-exact bound can tell
            est, scanned = original(arrays, target)
            bias = 0.5 * max(est.point, 10.0)
            est = sketch_mod.Estimate(
                point=est.point + bias,
                lo=est.lo + bias,
                hi=est.hi + bias,
                std=est.std,
            )
            return est, scanned

        monkeypatch.setattr(
            sketch_mod, "intersect_count_many_estimate", inflated
        )
        case = fuzz.generate_case(TC_SEED)
        mismatches = fuzz.check_sketch_axis(case, fuzz.run_oracle(case).value)
        assert any("out of bounds" in m for m in mismatches)

    def test_detects_nondeterministic_estimator(self, monkeypatch):
        """Run-to-run drift at a fixed sketch seed must trip the
        bit-reproducibility contract."""
        from repro.kernels import sketch as sketch_mod

        original = sketch_mod.intersect_count_many_estimate
        real_run = fuzz.run_sim
        state = {"run": 0}

        def counting_run(case, backend, **config):
            state["run"] += 1
            return real_run(case, backend, **config)

        def drifting(arrays, target):
            est, scanned = original(arrays, target)
            if state["run"] >= 2:
                est = sketch_mod.Estimate(
                    point=est.point + 1.0,
                    lo=est.lo,
                    hi=est.hi + 1.0,
                    std=est.std,
                )
            return est, scanned

        monkeypatch.setattr(fuzz, "run_sim", counting_run)
        monkeypatch.setattr(
            sketch_mod, "intersect_count_many_estimate", drifting
        )
        case = fuzz.generate_case(TC_SEED)
        mismatches = fuzz.check_sketch_axis(case, fuzz.run_oracle(case).value)
        assert any("determinism" in m for m in mismatches)

    def test_cli_sketch_axis_smoke(self, tmp_path, capsys):
        rc = fuzz.main([
            "--iterations", "2", "--seed", "3",
            "--out", str(tmp_path), "--sketch-axis",
        ])
        assert rc == 0
        assert "2 case(s), 0 failure(s)" in capsys.readouterr().out


class TestReplay:
    def test_replay_returns_zero_when_fixed(self, tmp_path, capsys):
        # a repro persisted while a (since-fixed) bug was live now passes
        case = fuzz.generate_case(TC_SEED)
        path = tmp_path / "fuzz-repro-old.json"
        path.write_text(json.dumps({**case, "mismatches": ["stale"]}))
        assert fuzz.replay(str(path)) == 0

    def test_replay_rejects_unknown_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        assert fuzz.replay(str(path)) == 2

    def test_cli_replay_flag(self, planted_divergence, tmp_path, capsys):
        case = fuzz.generate_case(TC_SEED)
        path = fuzz.save_repro(case, fuzz.check_case(case), str(tmp_path))
        assert fuzz.main(["--replay", path]) == 1


class TestHelpers:
    def test_second_backend_differs_from_reference(self):
        assert fuzz.second_backend() != "reference"

    def test_normalize_value_handles_empty_results(self):
        assert normalize_value("tc", None) == 0
        assert normalize_value("mcf", None) == 0
        assert normalize_value("cd", None) == []
        assert normalize_value("gc", []) == []

    def test_permute_graph_preserves_shape(self, small_labeled_graph):
        out, mapping = permute_graph(small_labeled_graph, seed=9)
        assert out.num_vertices == small_labeled_graph.num_vertices
        assert out.num_edges == small_labeled_graph.num_edges
        for v in small_labeled_graph.vertices():
            assert out.label(mapping[v]) == small_labeled_graph.label(v)
