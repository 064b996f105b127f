"""Compare two result sets of ``run.py`` — or show the spread of one.

    python benchmarks/e2e/compare.py A.json B.json   # parent vs change
    python benchmarks/e2e/compare.py A.json          # run-to-run spread

Per (workload, end-to-end metric) it prints both medians with their
quartiles, the bound ``BENCHMARK.json`` fixes, and a verdict:

* ``within``     B's median is no worse than A's by more than the bound;
* ``worse``      it is worse by more than the bound — exit code 1;
* ``unresolved`` the run-to-run spread (quartile distance over median,
  either side) is wider than the bound and the two sides' runs overlap,
  so the data cannot tell; resize the run, do not widen the bound.

The exact per-layer metrics (simulator outputs and pure counts, see
``metrics.py``) must be bit-identical wherever both sets traced the same
workload with the same seed; a difference is reported as ``differs`` and
also exits 1.

A result set made with ``--repeat R`` holds R runs per workload and is
compared run against run.  With fewer than four runs per side the
per-iteration samples stand in for ``wall_s`` and ``cpu_s``.  Collecting,
comparing and rendering are separate steps, so the rows can be reused.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from metrics import LAYER_METRICS  # noqa: E402

SPEC_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "BENCHMARK.json"
)
Key = Tuple[str, str]


# -- collect -------------------------------------------------------------


def collect(path: str) -> Dict[str, Any]:
    """One result set as ``{"e2e": {(workload, metric): [values]},
    "exact": {(workload, seed, metric): value}}``."""
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)
    per_run: Dict[Key, List[float]] = {}
    per_iteration: Dict[Key, List[float]] = {}
    for run in results["runs"]:
        for name, metric in run["metrics"].items():
            per_run.setdefault((run["workload"], name), []).append(metric["value"])
            per_iteration.setdefault((run["workload"], name), []).extend(
                run["samples"].get(name, [])
            )
    e2e = {
        key: per_iteration[key] if len(values) < 4 and per_iteration[key] else values
        for key, values in per_run.items()
    }
    exact = {
        (layer["workload"], layer["seed"], name): layer["metrics"][name]["value"]
        for layer in results["layers"]
        for name, (_, _, is_exact) in LAYER_METRICS.items()
        if is_exact
    }
    return {"e2e": e2e, "exact": exact}


# -- compare -------------------------------------------------------------


def summary(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, q3 = (min(values), max(values)) if len(values) < 2 else statistics.quantiles(values, n=4)[::2]
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def verdict(a: Dict[str, float], b: Dict[str, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if max(a["spread"], b["spread"]) > bound:
        if better == "lower":
            all_better, all_worse = b["max"] < a["min"], b["min"] > a["max"]
        else:
            all_better, all_worse = b["min"] > a["max"], b["max"] < a["min"]
        if all_better:
            return "within"
        if not all_worse:
            return "unresolved"
    return "worse" if worse_by > bound else "within"


def compare(a: Dict[str, Any], b: Optional[Dict[str, Any]], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, end-to-end metric), then one per exact
    layer metric that differs."""
    rows: List[Dict[str, Any]] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a["e2e"] or (b is not None and key not in b["e2e"]):
                continue
            row: Dict[str, Any] = {
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "a": summary(a["e2e"][key]),
            }
            if b is None:
                row["verdict"] = "steady" if row["a"]["spread"] <= metric["bound"] else "wide"
            else:
                row["b"] = summary(b["e2e"][key])
                row["verdict"] = verdict(row["a"], row["b"], metric["better"], metric["bound"])
            rows.append(row)
    if b is not None:
        for key in sorted(set(a["exact"]) & set(b["exact"])):
            if a["exact"][key] != b["exact"][key]:
                rows.append(
                    {
                        "workload": key[0],
                        "metric": f"{key[2]} (seed {key[1]})",
                        "exact": (a["exact"][key], b["exact"][key]),
                        "verdict": "differs",
                    }
                )
    return rows


# -- render --------------------------------------------------------------


def cell(s: Dict[str, float]) -> str:
    return f"{s['median']:>10.5g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']:<3}"


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = []
    for row in rows:
        head = f"{row['workload']:<20}{row['metric']:<18}"
        if "exact" in row:
            lines.append(f"{head} exact {row['exact'][0]!r} != {row['exact'][1]!r}  differs")
            continue
        text = f"{head}{row['unit']:<5} A {cell(row['a'])}"
        spread = row["a"]["spread"]
        if "b" in row:
            text += f"  B {cell(row['b'])}"
            spread = max(spread, row["b"]["spread"])
        lines.append(f"{text}  spread {spread:6.1%}  bound {row['bound']:.0%}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = [collect(path) for path in argv]
    rows = compare(sets[0], sets[1] if len(sets) == 2 else None, spec)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "differs")]
    unresolved = [r for r in rows if r["verdict"] in ("unresolved", "wide")]
    print(f"\n{len(rows)} rows: {len(bad)} worse/differs, {len(unresolved)} unresolved/wide")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
