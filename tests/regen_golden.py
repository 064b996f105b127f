"""Recompute the golden tables pinned in ``test_golden_values.py``.

Run after an *intentional* result-affecting change and paste the
printed literals over the stale tables::

    PYTHONPATH=src python tests/regen_golden.py            # everything
    PYTHONPATH=src python tests/regen_golden.py groups     # one table

Group results (communities/clusters) are pinned as short digests of
their canonical form rather than as literal member lists — the digest
changes iff any community's membership changes, without burying the
test file under thousands of vertex ids.  ``group_digest`` is the one
true canonicalisation, imported by the test module.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.verify.metamorphic import normalize_value

#: Datasets carrying native attributes (the CD/GC inputs).
ATTRIBUTED_DATASETS = ("dblp-s", "tencent-s")
#: Datasets for the non-attributed workloads.
PLAIN_DATASETS = ("skitter-s", "orkut-s", "btc-s", "friendster-s")


def group_digest(value) -> str:
    """Digest of a community/cluster result's canonical form."""
    canonical = normalize_value("cd", value)
    payload = json.dumps(canonical, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _spec():
    from repro.sim.cluster import ClusterSpec

    return ClusterSpec(num_nodes=4, cores_per_node=4)


def regen_non_attributed() -> None:
    from repro.bench.runner import run

    print("GOLDEN_NON_ATTRIBUTED = {")
    for dataset in PLAIN_DATASETS:
        values = []
        for workload in ("tc", "mcf", "gm"):
            result = run(
                workload=workload, dataset=dataset, spec=_spec(),
                time_limit=None,
            )
            assert result.ok, (workload, dataset, result.status)
            values.append(
                len(result.value) if workload == "mcf" else result.value
            )
        print(f"    {dataset!r}: ({values[0]}, {values[1]}, {values[2]}),")
    print("}")


def regen_groups() -> None:
    from repro.bench.runner import run

    counts, digests = {}, {}
    for dataset in ATTRIBUTED_DATASETS:
        for workload in ("cd", "gc"):
            result = run(
                workload=workload, dataset=dataset, spec=_spec(),
                time_limit=None,
            )
            assert result.ok, (workload, dataset, result.status)
            if workload == "cd":
                counts[dataset] = len(result.value)
            digests[f"{workload}/{dataset}"] = group_digest(result.value)
    print("GOLDEN_COMMUNITIES = {")
    for dataset, count in counts.items():
        print(f"    {dataset!r}: {count},")
    print("}")
    print("GOLDEN_GROUP_DIGESTS = {")
    for key in sorted(digests):
        print(f"    {key!r}: {digests[key]!r},")
    print("}")


def regen_work_units() -> None:
    from repro.bench.runner import run

    keys = [
        "tc/skitter-s", "tc/orkut-s", "tc/btc-s", "tc/friendster-s",
        "mcf/skitter-s", "mcf/btc-s", "gm/skitter-s", "gm/btc-s",
        "cd/dblp-s", "cd/tencent-s", "gc/dblp-s",
    ]
    print("WORK_UNIT_PINS = {")
    for key in keys:
        workload, dataset = key.split("/")
        result = run(system="single-thread", workload=workload, dataset=dataset)
        print(f"    {key!r}: {result.stats['work_units']},")
    print("}")


#: Run-level gauges pinned per workload on skitter-s, in tuple order.
OBS_GAUGES = (
    "job.makespan", "job.messages", "job.network_bytes",
    "job.tasks_created", "job.work_units",
)


def obs_gauges(workload: str) -> tuple:
    """The :data:`OBS_GAUGES` of one observed run on skitter-s."""
    from repro.bench.runner import run

    result = run(
        workload=workload, dataset="skitter-s", spec=_spec(),
        time_limit=None, enable_obs=True,
    )
    assert result.ok, (workload, result.status)
    gauges = result.obs["metrics"]["gauges"]
    return tuple(gauges[name] for name in OBS_GAUGES)


def regen_obs_gauges() -> None:
    print("OBS_GAUGE_PINS = {")
    for workload in ("tc", "mcf", "gm"):
        print(f"    {workload!r}: {obs_gauges(workload)!r},")
    print("}")


TABLES = {
    "non-attributed": regen_non_attributed,
    "groups": regen_groups,
    "work-units": regen_work_units,
    "obs-gauges": regen_obs_gauges,
}


def main(argv) -> int:
    wanted = argv or sorted(TABLES)
    for name in wanted:
        if name not in TABLES:
            print(f"unknown table {name!r}; pick from {sorted(TABLES)}")
            return 2
    for name in wanted:
        TABLES[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
