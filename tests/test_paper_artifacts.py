"""The archived paper artefacts are the checked contract.

``results/`` holds one ``<id>.txt`` + ``<id>.json`` per experiment of
:data:`repro.bench.experiments.ALL_EXPERIMENTS` and nothing else;
EXPERIMENTS.md quotes each ``.txt`` verbatim; no archived report has a
failed shape check.  The full regeneration gate is CI's ``paper`` job
(``python -m repro.bench run all -o regen -w 2 && diff -r results
regen``); here the four cheapest experiments are regenerated in-process
so tier-1 notices a drifted simulated quantity or a stale archive.
"""

import json
import os

import pytest

from repro.bench import experiments
from repro.bench.__main__ import main
from repro.bench.export import save_report
from repro.bench.report import Check, ExperimentReport

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RESULTS = os.path.join(ROOT, "results")

#: experiment function -> the ``experiment_id`` its artefacts are named by
ARTEFACT_IDS = {
    "table1_motivation": "table1",
    "table2_datasets": "table2",
    "table3_tc_mcf": "table3",
    "table4_gm": "table4",
    "table5_cd_gc": "table5",
    "fig5_6_utilization": "fig5_6",
    "fig7_cost": "fig7",
    "fig8_vertical": "fig8",
    "fig9_horizontal": "fig9",
    "fig10_baseline_scalability": "fig10",
    "fig11_bdg": "fig11",
    "fig12_lsh": "fig12",
    "fig13_stealing": "fig13",
    "ablation_cache": "ablationA",
    "ablation_splitting": "ablationB",
    "ablation_fault_tolerance": "ablationC",
    "ablation_chaos": "ablationC2",
    "ablation_multiprocess": "ablationD",
}

#: regenerated in-process: the four cheapest (0.7-2.2 s each)
CHEAPEST = (
    "table2_datasets", "table4_gm", "ablation_splitting", "ablation_chaos",
)


def _read(*parts):
    with open(os.path.join(*parts), encoding="utf-8") as fh:
        return fh.read()


def test_results_holds_exactly_one_txt_and_json_per_experiment():
    assert set(ARTEFACT_IDS) == {fn.__name__ for fn in experiments.ALL_EXPERIMENTS}
    expected = {
        f"{artefact}.{ext}"
        for artefact in ARTEFACT_IDS.values()
        for ext in ("txt", "json")
    }
    assert set(os.listdir(RESULTS)) == expected


def _fenced_blocks(markdown):
    blocks, inside = set(), None
    for line in markdown.splitlines(keepends=True):
        if line.startswith("```"):
            if inside is None:
                inside = []
            else:
                blocks.add("".join(inside))
                inside = None
        elif inside is not None:
            inside.append(line)
    return blocks


def test_experiments_md_quotes_every_archived_report_verbatim():
    blocks = _fenced_blocks(_read(ROOT, "EXPERIMENTS.md"))
    stale = [
        artefact for artefact in ARTEFACT_IDS.values()
        if _read(RESULTS, f"{artefact}.txt") not in blocks
    ]
    assert not stale, f"EXPERIMENTS.md has no verbatim block for {stale}"


def test_no_archived_report_has_a_failed_check():
    for artefact in ARTEFACT_IDS.values():
        record = json.loads(_read(RESULTS, f"{artefact}.json"))
        assert record["experiment_id"] == artefact
        assert record["checks"], artefact
        failed = [c for c in record["checks"] if not c["passed"]]
        assert not failed, (artefact, failed)
        assert "FAILED" not in _read(RESULTS, f"{artefact}.txt")


@pytest.mark.parametrize("name", CHEAPEST)
def test_regenerated_report_matches_the_archive(name, tmp_path):
    report = getattr(experiments, name)()
    assert report.experiment_id == ARTEFACT_IDS[name]
    for path in save_report(report, str(tmp_path)).values():
        assert _read(path) == _read(RESULTS, os.path.basename(path)), path


def test_failing_check_fails_the_run(monkeypatch, capsys):
    def stub():
        return ExperimentReport(
            "stub", "Stub", "body",
            checks=[Check("holds", True), Check("the claim", False, "1 vs 2")],
        )

    monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", [stub])
    assert main(["run", "stub", "-w", "1", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert "shape checks: holds" in out
    assert "FAILED shape checks: the claim [1 vs 2]" in out
    assert "FAILED shape check in stub: the claim [1 vs 2]" in err
