"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --quick`` once (tiny inputs, under 20 s) and holds the
output, ``BENCHMARK.json`` and ``metrics.py`` to one list of names; then
checks that a wrong oracle is counted as failures and that
``compare.py`` tells ``within`` from ``worse`` from ``unresolved``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import measure  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=False,
    )  # fmt: skip
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), done.stdout, elapsed


def test_spec_is_inside_the_contract_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])


def test_spec_mirrors_the_harness_definitions(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in metrics.LAYER_METRICS.items()
    ]


def test_quick_run_emits_exactly_the_declared_names(spec, quick_results):
    results, stdout, elapsed = quick_results
    assert elapsed < 20, f"--quick took {elapsed:.1f} s"
    declared_workloads = [w["name"] for w in spec["workloads"]]
    assert [r["workload"] for r in results["runs"]] == declared_workloads
    assert [r["workload"] for r in results["layers"]] == declared_workloads
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for run in results["runs"]:
        assert {n: m["unit"] for n, m in run["metrics"].items()} == e2e
        assert all(m["value"] > 0 for m in run["metrics"].values()), run["metrics"]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 3
    for traced in results["layers"]:
        assert {n: m["unit"] for n, m in traced["metrics"].items()} == layer
        assert traced["correct"] and traced["failed"] == 0
    for name in declared_workloads + list(e2e):
        assert name in stdout
    # every layer metric is printed for at least one workload
    assert all(name in stdout for name in layer)


def test_every_layer_metric_is_measured_by_some_workload(quick_results):
    results = quick_results[0]
    measured = {
        name
        for traced in results["layers"]
        for name, metric in traced["metrics"].items()
        if metric["value"] != 0
    }
    # fault counters are legitimately 0 on a healthy pool, spills and
    # sketch error on tiny inputs (sketches capture small sets whole),
    # steal on an unshared host
    may_be_zero = {
        "kernels.sketch.rel_error",
        "native.steals", "native.retries", "native.respawns", "native.fallback_chunks",
        "core.disk_spills", "core.tasks_migrated", "host.steal_share",
        "service.jobs_rejected", "service.refused_share", "service.queue_wait_p99_vs",
    }  # fmt: skip
    assert set(metrics.LAYER_METRICS) - measured <= may_be_zero


def test_traces_load_and_nest(quick_results):
    results = quick_results[0]
    for traced in results["layers"]:
        with open(os.path.join(ROOT, traced["trace_file"]), encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert len(events) == traced["spans"] > 0
        ids = {e["args"]["id"] for e in events}
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        assert all(e["args"]["parent"] in ids | {None} for e in events)
        assert all(e["args"]["workload"] == traced["workload"] for e in events)
        assert any(e["name"] == "e2e.iteration" for e in events)


def test_planted_wrong_oracle_counts_as_failures(monkeypatch):
    workload = workloads.WORKLOADS["sim-tc-orkut"]
    honest = measure.measure(workload, 7, 0.05, True, time.perf_counter())
    assert honest["correct"] and honest["failed"] == 0
    truth = workload.oracle
    monkeypatch.setattr(
        workload, "oracle", lambda state: (True, truth(state)[1] + 1), raising=False
    )
    planted = measure.measure(workload, 7, 0.05, True, time.perf_counter())
    assert not planted["correct"]
    assert planted["failed"] == planted["attempted"] >= 3


def test_compare_verdicts():
    tight_a = compare.summary([1.00, 1.01, 0.99, 1.00, 1.02])
    tight_same = compare.summary([1.03, 1.02, 1.04, 1.03, 1.01])
    tight_slow = compare.summary([1.20, 1.21, 1.19, 1.22, 1.20])
    noisy_a = compare.summary([1.0, 1.3, 0.8, 1.1, 0.9])
    noisy_b = compare.summary([1.2, 1.4, 0.9, 1.3, 1.0])
    noisy_fast = compare.summary([0.5, 0.6, 0.4, 0.55, 0.45])
    assert compare.verdict(tight_a, tight_same, "lower", 0.10) == "within"
    assert compare.verdict(tight_a, tight_slow, "lower", 0.10) == "worse"
    assert compare.verdict(tight_slow, tight_a, "higher", 0.10) == "worse"
    assert compare.verdict(noisy_a, noisy_b, "lower", 0.10) == "unresolved"
    assert compare.verdict(noisy_a, noisy_fast, "lower", 0.10) == "within"
