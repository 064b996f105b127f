"""One function per table/figure of the paper's evaluation (§8).

Each function runs the scaled experiment, renders it in the paper's
format, evaluates its *shape checks* (the qualitative claims that should
survive scaling: who wins, who fails, what direction each knob moves)
as :class:`~repro.bench.report.Check` records and documents deviations
as notes.  This module is the only statement of each claim: a failed
check is rendered as failed and fails ``python -m repro.bench run``;
``results/`` archives every report and EXPERIMENTS.md quotes it.

Every experiment first *declares* its grid of independent cells as
:class:`~repro.parallel.RunRequest` records, then executes the batch
through the ambient :class:`~repro.parallel.ParallelRunner`
(:func:`_run_cells`).  Results come back in request order, so the
assembled tables are byte-identical whether the batch ran serially or
fanned out over ``--workers N`` processes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.bench.report import (
    Check,
    ExperimentReport,
    format_cell,
    render_series,
    render_table,
)
from repro.bench.runner import EXPERIMENT_SPEC
from repro.core.job import JobResult, JobStatus
from repro.graph.datasets import dataset_table
from repro.parallel import RunRequest, current_runner
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import FailurePlan

NON_ATTRIBUTED = ("skitter-s", "orkut-s", "btc-s", "friendster-s")
COMPARED_SYSTEMS = ("arabesque", "giraph", "graphx", "gthinker", "gminer")

#: Declarative cell builder, re-exported for brevity in the grids below.
_cell = RunRequest.make


def _run_cells(requests: Sequence[RunRequest]) -> List[Optional[JobResult]]:
    """Execute a batch of cells via the ambient runner, in order."""
    return current_runner().map(list(requests))


def _spec(num_nodes: int, cores: int) -> ClusterSpec:
    return EXPERIMENT_SPEC.with_nodes(num_nodes).with_cores(cores)


# ----------------------------------------------------------------------
# Table 1 — motivation: MCF on Orkut across systems
# ----------------------------------------------------------------------

def table1_motivation() -> ExperimentReport:
    """MCF on orkut-s, 8 worker nodes, every system + single thread."""
    spec = _spec(8, EXPERIMENT_SPEC.cores_per_node)
    systems = ["single-thread", "arabesque", "giraph", "graphx", "gthinker", "gminer"]
    requests = [
        _cell(
            "mcf", "orkut-s", system,
            spec=ClusterSpec(num_nodes=1, cores_per_node=1)
            if system == "single-thread"
            else spec,
        )
        for system in systems
    ]
    results: Dict[str, Optional[JobResult]] = dict(zip(systems, _run_cells(requests)))
    rows: List[List[str]] = []
    for system in systems:
        result = results[system]
        cores = 1 if system == "single-thread" else spec.total_cores
        rows.append(
            [
                str(cores),
                format_cell(result, "mem"),
                format_cell(result, "net"),
                format_cell(result, "cpu"),
                format_cell(result, "time"),
            ]
        )
    rendered = render_table(
        "Table 1: max-clique finding on orkut-s ('-': over limit; 'x': OOM)",
        ["Cores", "Mem", "Net", "CPU Util", "Time(s)"],
        rows,
        systems,
        label_header="System",
    )
    single = results["single-thread"]
    gthinker = results["gthinker"]
    gminer = results["gminer"]
    checks = [
        Check("single-thread runs at 100% CPU", single.ok and single.cpu_utilization == 1.0),
        Check("giraph-like OOMs (paper: x)", results["giraph"].status is JobStatus.OOM),
        Check("graphx-like fails to finish (paper: >24h)", not results["graphx"].ok),
        Check("arabesque-like fails to finish (paper: >24h)", not results["arabesque"].ok),
        Check(
            "both subgraph-centric systems finish and G-Miner is the faster",
            gthinker.ok and gminer.ok and gminer.total_seconds < gthinker.total_seconds,
            f"{gminer.total_seconds:.3f}s vs {gthinker.total_seconds:.3f}s",
        ),
    ]
    notes = [
        "paper: gthinker-like beats the single thread (164.6s vs 86640s); measured: "
        f"{gthinker.total_seconds:.3f}s vs {single.total_seconds:.3f}s, a job too short on the "
        "2000-vertex stand-in to amortise the batch system's pull rounds "
        f"({100 * gthinker.cpu_utilization:.1f}% CPU)"
    ]
    return ExperimentReport(
        "table1", "Motivation: MCF on Orkut", rendered,
        data={s: r for s, r in results.items()}, checks=checks, notes=notes,
    )


# ----------------------------------------------------------------------
# Table 2 — dataset statistics
# ----------------------------------------------------------------------

def table2_datasets() -> ExperimentReport:
    """Dataset statistics of the scaled stand-ins (paper Table 2)."""
    rendered = dataset_table()
    stand_ins = NON_ATTRIBUTED + ("tencent-s", "dblp-s")
    return ExperimentReport(
        "table2",
        "Graph datasets (scaled stand-ins; see DESIGN.md for the mapping)",
        rendered,
        checks=[
            Check(
                "all six scaled stand-ins are listed",
                all(name in rendered for name in stand_ins),
            )
        ],
    )


# ----------------------------------------------------------------------
# Table 3 — TC & MCF elapsed time, 4 graphs x 5 systems
# ----------------------------------------------------------------------

def table3_tc_mcf() -> ExperimentReport:
    """TC & MCF elapsed time: 4 graphs x 5 systems (paper Table 3)."""
    cases = [(app, dataset) for app in ("tc", "mcf") for dataset in NON_ATTRIBUTED]
    requests = [
        _cell(app, dataset, system)
        for app, dataset in cases
        for system in COMPARED_SYSTEMS
    ]
    results = _run_cells(requests)
    row_labels: List[str] = []
    rows: List[List[str]] = []
    data: Dict[str, Dict[str, Optional[JobResult]]] = {}
    for i, (app, dataset) in enumerate(cases):
        label = f"{app.upper()} {dataset}"
        row_labels.append(label)
        block = results[i * len(COMPARED_SYSTEMS):(i + 1) * len(COMPARED_SYSTEMS)]
        data[label] = dict(zip(COMPARED_SYSTEMS, block))
        rows.append([format_cell(result) for result in block])
    rendered = render_table(
        "Table 3: elapsed time in seconds ('-': over limit; 'x': OOM)",
        list(COMPARED_SYSTEMS),
        rows,
        row_labels,
        label_header="Workload",
    )
    heavy_failures = sum(
        1
        for l in row_labels
        for s in ("arabesque", "giraph", "graphx")
        if data[l][s] is not None and not data[l][s].ok
    )
    wins = sum(
        1
        for l in row_labels
        if data[l]["gminer"].ok
        and all(
            (not r.ok) or data[l]["gminer"].total_seconds <= r.total_seconds * 1.6
            for s, r in data[l].items()
            if s != "gminer" and r is not None
        )
    )
    checks = [
        Check(
            "G-Miner succeeds on every workload/dataset",
            all(data[l]["gminer"].ok for l in row_labels),
        ),
        Check(
            "gthinker-like succeeds everywhere (the only other survivor)",
            all(data[l]["gthinker"].ok for l in row_labels),
        ),
        Check(
            "at least 6 of the 24 arabesque/giraph/graphx cells fail (paper: 17 of 24)",
            heavy_failures >= 6, f"{heavy_failures} failures",
        ),
        Check(
            "G-Miner fastest or within 1.6x of best on every row",
            wins == len(row_labels), f"{wins}/{len(row_labels)} rows",
        ),
    ]
    notes = [
        "failure *flavours* can differ from the paper at reduced scale "
        "(a run that OOM'd on the real 48GB nodes may time out here instead); "
        "the success/failure pattern is what is preserved"
    ]
    return ExperimentReport(
        "table3", "TC & MCF across systems", rendered, data=data,
        checks=checks, notes=notes,
    )


# ----------------------------------------------------------------------
# Table 4 — GM: G-Miner vs G-thinker with resource metrics
# ----------------------------------------------------------------------

def table4_gm() -> ExperimentReport:
    """GM resource comparison, G-Miner vs G-thinker (paper Table 4)."""
    requests = [
        _cell("gm", dataset, system)
        for dataset in NON_ATTRIBUTED
        for system in ("gminer", "gthinker")
    ]
    results = _run_cells(requests)
    rows = []
    data: Dict[str, Dict[str, JobResult]] = {}
    for i, dataset in enumerate(NON_ATTRIBUTED):
        gm, gt = results[2 * i], results[2 * i + 1]
        data[dataset] = {"gminer": gm, "gthinker": gt}
        rows.append(
            [
                str(gm.value),
                format_cell(gm), format_cell(gt),
                format_cell(gm, "cpu"), format_cell(gt, "cpu"),
                format_cell(gm, "mem"), format_cell(gt, "mem"),
                format_cell(gm, "net"), format_cell(gt, "net"),
            ]
        )
    rendered = render_table(
        "Table 4: graph matching — G-Miner vs gthinker-like",
        [
            "Matches",
            "GM t(s)", "GT t(s)",
            "GM cpu", "GT cpu",
            "GM mem", "GT mem",
            "GM net", "GT net",
        ],
        rows,
        list(data),
        label_header="Dataset",
    )
    faster = sum(
        1 for d in data.values()
        if d["gminer"].total_seconds < d["gthinker"].total_seconds
    )
    higher_cpu = sum(
        1 for d in data.values()
        if d["gminer"].cpu_utilization > d["gthinker"].cpu_utilization
    )
    less_net = sum(
        1 for d in data.values()
        if d["gminer"].network_bytes < d["gthinker"].network_bytes
    )
    checks = [
        Check(
            "both systems finish with identical match counts on every dataset",
            all(
                d["gminer"].ok and d["gthinker"].ok and d["gminer"].value == d["gthinker"].value
                for d in data.values()
            ),
        ),
        Check(
            "G-Miner faster on at least 3/4 datasets (paper: 4/4, 2-6x)",
            faster >= 3, f"{faster}/4",
        ),
        Check(
            "G-Miner higher CPU utilisation on every dataset (paper: 4/4)",
            higher_cpu == 4, f"{higher_cpu}/4",
        ),
        Check(
            "G-Miner less network traffic on every dataset (paper: 4/4)",
            less_net == 4, f"{less_net}/4",
        ),
    ]
    return ExperimentReport(
        "table4", "GM: G-Miner vs G-thinker", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Table 5 — CD & GC on G-Miner (no other system can run them)
# ----------------------------------------------------------------------

def table5_cd_gc() -> ExperimentReport:
    """CD & GC on G-Miner, the only system that runs them (Table 5)."""
    cd_datasets = ("skitter-s", "orkut-s", "friendster-s", "dblp-s", "tencent-s")
    gc_datasets = ("skitter-s", "orkut-s", "friendster-s", "dblp-s")  # paper: no Tencent
    # GC is the paper's heaviest workload (9h on Friendster vs 26min
    # for MCF); it gets the proportionally longer cutoff here too.
    cases = [
        (app, dataset)
        for app, datasets in (("cd", cd_datasets), ("gc", gc_datasets))
        for dataset in datasets
    ]
    results = _run_cells(
        [_cell(app, dataset, time_limit=150.0) for app, dataset in cases]
    )
    rows = []
    data: Dict[str, JobResult] = {}
    for (app, dataset), result in zip(cases, results):
        key = f"{app.upper()} {dataset}"
        data[key] = result
        found = len(result.value) if result.value else 0
        rows.append(
            [format_cell(result), format_cell(result, "mem"), str(found)]
        )
    rendered = render_table(
        "Table 5: CD & GC on G-Miner (no baseline can express them)",
        ["Time(s)", "Mem", "Found"],
        rows,
        list(data),
        label_header="Workload",
    )
    completed = sum(1 for r in data.values() if r.ok)
    attributed = ("CD dblp-s", "CD tencent-s", "GC dblp-s")
    checks = [
        Check(
            "G-Miner completes every CD/GC run (paper: all succeed)",
            completed == len(data), f"{completed}/{len(data)}",
        ),
        Check(
            "communities/clusters found on the attributed datasets",
            all(data[k].ok and data[k].value for k in attributed),
            ", ".join(f"{k}: {len(data[k].value or ())}" for k in attributed),
        ),
    ]
    return ExperimentReport(
        "table5", "Heavy attributed workloads", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Figures 5 & 6 — utilisation timelines, GM on Friendster
# ----------------------------------------------------------------------

def fig5_6_utilization(bins: int = 30) -> ExperimentReport:
    """Utilisation timelines, GM on Friendster (paper Figures 5-6)."""
    gt, gm = _run_cells(
        [
            _cell("gm", "friendster-s", "gthinker", time_limit=60.0),
            _cell("gm", "friendster-s", "gminer", time_limit=60.0),
        ]
    )
    t_gt, s_gt = gt.utilization_series(bins=bins)
    t_gm, s_gm = gm.utilization_series(bins=bins)
    part1 = render_series(
        "Figure 5: gthinker-like utilisation, GM on friendster-s (%)",
        "t(s)", [f"{t:.2f}" for t in t_gt], s_gt, fmt="{:.1f}",
    )
    part2 = render_series(
        "Figure 6: G-Miner utilisation, GM on friendster-s (%)",
        "t(s)", [f"{t:.2f}" for t in t_gm], s_gm, fmt="{:.1f}",
    )
    mean_gt = sum(s_gt["cpu"]) / len(s_gt["cpu"])
    mean_gm = sum(s_gm["cpu"]) / len(s_gm["cpu"])
    # batch systems stall: count bins with near-zero CPU
    stalls_gt = sum(1 for v in s_gt["cpu"] if v < max(s_gt["cpu"]) * 0.2)
    stalls_gm = sum(1 for v in s_gm["cpu"] if v < max(s_gm["cpu"]) * 0.2)
    checks = [
        Check(
            "G-Miner mean CPU above gthinker's (paper: 85% vs 15%)",
            mean_gm > mean_gt, f"{mean_gm:.1f}% vs {mean_gt:.1f}%",
        ),
        Check(
            "gthinker shows more stalled bins than G-Miner (the paper's intermittent CPU troughs)",
            stalls_gt > stalls_gm, f"{stalls_gt} vs {stalls_gm}",
        ),
    ]
    return ExperimentReport(
        "fig5_6", "CPU/network/disk utilisation timelines",
        part1 + "\n\n" + part2,
        data={"gthinker": (t_gt, s_gt), "gminer": (t_gm, s_gm)},
        checks=checks,
    )


# ----------------------------------------------------------------------
# Figure 7 — the COST metric (single node, 1..24 cores)
# ----------------------------------------------------------------------

def fig7_cost(core_counts: Sequence[int] = (1, 2, 4, 8, 12, 24)) -> ExperimentReport:
    """The COST metric: cores needed to beat one thread (Figure 7)."""
    cases = [("tc", "skitter-s"), ("tc", "orkut-s"), ("gm", "skitter-s"), ("gm", "orkut-s")]
    requests = []
    for app, dataset in cases:
        requests.append(_cell(app, dataset, "single-thread"))
        for cores in core_counts:
            requests.append(
                _cell(app, dataset, spec=_spec(1, cores), time_limit=None)
            )
    results = _run_cells(requests)
    series: Dict[str, List[float]] = {}
    single: Dict[str, float] = {}
    cost: Dict[str, Optional[int]] = {}
    stride = 1 + len(core_counts)
    for i, (app, dataset) in enumerate(cases):
        name = f"{app}-{dataset}"
        block = results[i * stride:(i + 1) * stride]
        single[name] = block[0].total_seconds
        times = [r.total_seconds for r in block[1:]]
        series[name] = times
        cost[name] = next(
            (c for c, t in zip(core_counts, times) if t < single[name]), None
        )
    rendered = render_series(
        "Figure 7: G-Miner on one node (seconds; single-thread baseline in data)",
        "cores", list(core_counts), series,
    )
    rendered += "\nsingle-thread: " + ", ".join(
        f"{k}={v:.3f}s" for k, v in single.items()
    )
    rendered += "\nCOST: " + ", ".join(f"{k}={v}" for k, v in cost.items())
    low_cost = sum(1 for v in cost.values() if v is not None and v <= 4)
    speedups = {k: single[k] / series[k][-1] for k in series}
    fast = sum(1 for s in speedups.values() if s > 2.0)
    checks = [
        Check(
            "COST <= 4 cores for at least 3/4 cases (paper: 2-3 for 4/4)",
            low_cost >= 3, f"{low_cost}/4",
        ),
        Check(
            "24 cores never slower than 1 core by more than 5%",
            all(times[-1] <= times[0] * 1.05 for times in series.values()),
        ),
        Check(
            "24 cores beat the single thread by more than 2x in at least 3/4 cases",
            fast >= 3, ", ".join(f"{k} {s:.2f}x" for k, s in speedups.items()),
        ),
    ]
    return ExperimentReport(
        "fig7", "The COST of scalability", rendered,
        data={"series": series, "single": single, "cost": cost},
        checks=checks,
        notes=[
            "speedups saturate earlier than the paper's 12.8x because the "
            "scaled graphs carry ~10^3x fewer tasks per core; gm-skitter-s "
            f"({single['gm-skitter-s']:.3f}s single-threaded) is too small "
            "for any core count to amortise the setup, hence its missing COST"
        ],
    )


# ----------------------------------------------------------------------
# Figures 8 & 9 — vertical / horizontal scalability
# ----------------------------------------------------------------------

def _friendster_sweep(specs: Sequence[ClusterSpec]) -> Dict[str, List[float]]:
    """MCF and GM elapsed seconds on friendster-s, one cell per cluster shape."""
    apps = ("mcf", "gm")
    results = _run_cells(
        [
            _cell(app, "friendster-s", spec=spec, time_limit=None)
            for app in apps
            for spec in specs
        ]
    )
    return {
        f"{app}-friendster-s": [
            r.total_seconds for r in results[i * len(specs):(i + 1) * len(specs)]
        ]
        for i, app in enumerate(apps)
    }


def fig8_vertical(core_counts: Sequence[int] = (1, 2, 4, 8, 12, 24)) -> ExperimentReport:
    """Vertical scalability: cores/node sweep (paper Figure 8)."""
    series = _friendster_sweep([_spec(15, cores) for cores in core_counts])
    rendered = render_series(
        "Figure 8: vertical scalability (15 nodes, cores/node swept)",
        "cores/node", list(core_counts), series,
    )
    checks = [
        Check(
            f"{name}: more cores/node reduces time",
            times[-1] < times[0], f"{times[0]:.3f}s -> {times[-1]:.3f}s",
        )
        for name, times in series.items()
    ]
    return ExperimentReport(
        "fig8", "Vertical scalability", rendered, data=series, checks=checks
    )


def fig9_horizontal(node_counts: Sequence[int] = (10, 15, 20)) -> ExperimentReport:
    """Horizontal scalability: node-count sweep (paper Figure 9)."""
    series = _friendster_sweep([_spec(nodes, 4) for nodes in node_counts])
    rendered = render_series(
        "Figure 9: horizontal scalability (4 cores/node, nodes swept)",
        "nodes", list(node_counts), series,
    )
    checks = [
        Check(
            f"{name}: {node_counts[-1]} nodes no slower than {node_counts[0]}",
            times[-1] <= times[0], f"{times[0]:.3f}s -> {times[-1]:.3f}s",
        )
        for name, times in series.items()
    ]
    return ExperimentReport(
        "fig9", "Horizontal scalability", rendered, data=series, checks=checks
    )


# ----------------------------------------------------------------------
# Figure 10 — scalability of the other systems
# ----------------------------------------------------------------------

def fig10_baseline_scalability(
    node_counts: Sequence[int] = (5, 10, 15, 20),
) -> ExperimentReport:
    """Scalability of the other systems on TC (paper Figure 10)."""
    datasets = ("skitter-s", "orkut-s")
    systems = ("arabesque", "giraph", "graphx", "gthinker")
    results = _run_cells(
        [
            _cell("tc", dataset, system, spec=_spec(nodes, 4))
            for dataset in datasets
            for system in systems
            for nodes in node_counts
        ]
    )
    blocks = []
    data: Dict[str, Dict[str, List[float]]] = {}
    index = 0
    for dataset in datasets:
        series: Dict[str, List[float]] = {}
        for system in systems:
            block = results[index:index + len(node_counts)]
            index += len(node_counts)
            series[system] = [
                r.total_seconds if r.ok else float("nan") for r in block
            ]
        data[dataset] = series
        blocks.append(
            render_series(
                f"Figure 10: TC on {dataset} (seconds)",
                "nodes", list(node_counts), series,
            )
        )
    curves = [
        [t for t in times if not math.isnan(t)]
        for series in data.values()
        for times in series.values()
    ]
    slowed = sum(1 for times in curves if times and times[-1] > times[0])
    checks = [
        Check("every baseline finishes TC at some node count on each dataset", all(curves)),
        Check(
            "adding nodes slows at least one baseline curve down (paper: 'no guarantee')",
            slowed > 0, f"{slowed}/{len(curves)} curves",
        ),
    ]
    return ExperimentReport(
        "fig10", "Scalability of other systems", "\n\n".join(blocks),
        data=data, checks=checks,
    )


# ----------------------------------------------------------------------
# Figure 11 — BDG vs hash partitioning
# ----------------------------------------------------------------------

def fig11_bdg() -> ExperimentReport:
    """BDG vs hash partitioning on MCF (paper Figure 11)."""
    datasets = ("orkut-s", "friendster-s")
    parts = ("hash", "bdg")
    results = _run_cells(
        [
            _cell("mcf", dataset, partitioner=part)
            for dataset in datasets
            for part in parts
        ]
    )
    rows, labels = [], []
    data: Dict[str, Dict[str, JobResult]] = {}
    for i, dataset in enumerate(datasets):
        runs = dict(zip(parts, results[i * len(parts):(i + 1) * len(parts)]))
        data[dataset] = runs
        for part in parts:
            r = runs[part]
            labels.append(f"{dataset} {part}")
            rows.append(
                [
                    f"{r.partition_seconds:.3f}",
                    f"{r.mining_seconds:.3f}",
                    f"{r.total_seconds:.3f}",
                    format_cell(r, "mem"),
                    format_cell(r, "net"),
                ]
            )
    rendered = render_table(
        "Figure 11: BDG vs hash partitioning (MCF)",
        ["Partition(s)", "Mining(s)", "Total(s)", "Mem", "Net"],
        rows,
        labels,
        label_header="Run",
    )
    checks = []
    for dataset, runs in data.items():
        bdg, hashed = runs["bdg"], runs["hash"]
        checks += [
            Check(
                f"{dataset}: BDG pays more partitioning time (paper shape)",
                bdg.partition_seconds > hashed.partition_seconds,
            ),
            Check(
                f"{dataset}: BDG reduces network traffic (paper shape)",
                bdg.network_bytes < hashed.network_bytes,
            ),
            Check(
                f"{dataset}: BDG mining time within 1.1x of hash",
                bdg.mining_seconds <= hashed.mining_seconds * 1.1,
            ),
        ]
    notes = [
        "the paper's 35% total-time win does not fully materialise at this "
        "scale: a 2000-vertex dense graph cut 15 ways has ~87% external "
        "edges whichever partitioner runs, so locality gains are bounded"
    ]
    return ExperimentReport(
        "fig11", "BDG partitioning", rendered, data=data, checks=checks, notes=notes
    )


# ----------------------------------------------------------------------
# Figure 12 — LSH task priority queue on/off
# ----------------------------------------------------------------------

def _en_dis(cases, knob: str) -> Dict[str, Dict[str, JobResult]]:
    """Run each (app, dataset) case with ``knob`` enabled and disabled."""
    results = _run_cells(
        [
            _cell(app, dataset, **{knob: enabled})
            for app, dataset in cases
            for enabled in (True, False)
        ]
    )
    return {
        f"{app}-{dataset}": {"en": results[2 * i], "dis": results[2 * i + 1]}
        for i, (app, dataset) in enumerate(cases)
    }


def fig12_lsh() -> ExperimentReport:
    """LSH task priority queue En/Dis ablation (paper Figure 12)."""
    cases = [("gm", "orkut-s"), ("gm", "friendster-s"), ("mcf", "orkut-s"), ("mcf", "friendster-s")]
    data = _en_dis(cases, "enable_lsh")
    rows = [
        [
            f"{d['en'].total_seconds:.3f}", f"{d['dis'].total_seconds:.3f}",
            f"{d['en'].stats['cache_hit_rate']:.2f}", f"{d['dis'].stats['cache_hit_rate']:.2f}",
            f"{int(d['en'].stats['vertices_pulled'])}", f"{int(d['dis'].stats['vertices_pulled'])}",
        ]
        for d in data.values()
    ]
    rendered = render_table(
        "Figure 12: LSH-based task priority queue (En vs Dis)",
        ["En t(s)", "Dis t(s)", "En hit", "Dis hit", "En pulls", "Dis pulls"],
        rows,
        list(data),
        label_header="Case",
    )
    slower = sum(
        1 for d in data.values()
        if d["dis"].total_seconds > d["en"].total_seconds
    )
    more_pulls = sum(
        1 for d in data.values()
        if d["dis"].stats["vertices_pulled"] >= d["en"].stats["vertices_pulled"]
    )
    checks = [
        Check(
            "disabling LSH slows at least 3/4 cases (paper: up to 40% worse)",
            slower >= 3, f"{slower}/4",
        ),
        Check(
            "disabling LSH pulls at least as many vertices in at least 3/4 cases",
            more_pulls >= 3, f"{more_pulls}/4",
        ),
    ]
    return ExperimentReport(
        "fig12", "LSH task ordering", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Figure 13 — task stealing on/off
# ----------------------------------------------------------------------

def fig13_stealing() -> ExperimentReport:
    """Task stealing En/Dis ablation (paper Figure 13).

    The paper's GM/MCF cases are included for parity, plus TC cases:
    at our scale GM/MCF leave only a handful of long tasks per worker
    (little INACTIVE backlog to steal), while TC's thousands of skewed
    tasks expose the ~1.5x effect the paper reports.
    """
    cases = [
        ("gm", "orkut-s"), ("gm", "friendster-s"),
        ("mcf", "orkut-s"), ("mcf", "friendster-s"),
        ("tc", "orkut-s"), ("tc", "friendster-s"),
    ]
    data = _en_dis(cases, "enable_stealing")
    rows = [
        [
            f"{d['en'].total_seconds:.3f}", f"{d['dis'].total_seconds:.3f}",
            f"{int(d['en'].stats['tasks_migrated'])}",
            f"{100 * d['en'].cpu_utilization:.1f}%", f"{100 * d['dis'].cpu_utilization:.1f}%",
        ]
        for d in data.values()
    ]
    rendered = render_table(
        "Figure 13: task stealing (En vs Dis)",
        ["En t(s)", "Dis t(s)", "Migrated", "En cpu", "Dis cpu"],
        rows,
        list(data),
        label_header="Case",
    )
    helped = sum(
        1 for d in data.values()
        if d["en"].total_seconds <= d["dis"].total_seconds
    )
    tc_speedup = (
        data["tc-orkut-s"]["dis"].total_seconds
        / data["tc-orkut-s"]["en"].total_seconds
    )
    migrated = sum(int(d["en"].stats["tasks_migrated"]) for d in data.values())
    checks = [
        Check(
            f"stealing helps or is neutral in at least 4/{len(cases)} cases",
            helped >= 4, f"{helped}/{len(cases)}",
        ),
        Check("stealing migrates tasks", migrated > 0, f"{migrated} tasks"),
        Check(
            "TC orkut speedup from stealing above 1.2x (paper: ~1.5x)",
            tc_speedup > 1.2, f"{tc_speedup:.2f}x",
        ),
    ]
    return ExperimentReport(
        "fig13", "Task stealing", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Ablation A — RCV vs LRU vs FIFO cache (paper §7 discussion)
# ----------------------------------------------------------------------

def ablation_cache() -> ExperimentReport:
    """RCV vs LRU vs FIFO vertex cache (paper §7 discussion)."""
    cases = [
        (app, dataset, policy)
        for app, dataset in (("gm", "orkut-s"), ("mcf", "orkut-s"))
        for policy in ("rcv", "lru", "fifo")
    ]
    results = _run_cells(
        [_cell(app, dataset, cache_policy=policy) for app, dataset, policy in cases]
    )
    rows = []
    data = {}
    for (app, dataset, policy), r in zip(cases, results):
        key = f"{app} {policy}"
        data[key] = r
        rows.append(
            [
                f"{r.total_seconds:.3f}",
                f"{r.stats['cache_hit_rate']:.2f}",
                f"{int(r.stats['re_pulls'])}",
            ]
        )
    rendered = render_table(
        "Ablation A: RCV cache vs LRU/FIFO (paper §7)",
        ["Time(s)", "Hit rate", "Re-pulls"],
        rows,
        list(data),
        label_header="Run",
    )
    checks = []
    for app in ("gm", "mcf"):
        rcv, lru, fifo = (
            int(data[f"{app} {policy}"].stats["re_pulls"]) for policy in ("rcv", "lru", "fifo")
        )
        checks.append(
            Check(
                f"{app}: RCV re-pulls no more than LRU or FIFO, and at most 5% of the worse",
                rcv <= min(lru, fifo) and rcv <= max(10, 0.05 * max(lru, fifo)),
                f"{rcv} vs {lru}/{fifo}",
            )
        )
    return ExperimentReport(
        "ablationA", "Cache policy", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Ablation B — recursive task splitting (paper §9)
# ----------------------------------------------------------------------

def ablation_splitting() -> ExperimentReport:
    """Recursive task splitting extension (paper §9 future work)."""
    settings = (False, True)
    results = _run_cells(
        [
            _cell(
                "gm", "orkut-s",
                enable_splitting=enabled, split_candidate_threshold=64,
            )
            for enabled in settings
        ]
    )
    rows, data = [], {}
    for enabled, r in zip(settings, results):
        key = "split-on" if enabled else "split-off"
        data[key] = r
        rows.append(
            [
                f"{r.total_seconds:.3f}",
                f"{100 * r.cpu_utilization:.1f}%",
                str(int(r.stats["tasks_created"])),
                str(r.value),
            ]
        )
    rendered = render_table(
        "Ablation B: recursive task splitting (paper §9 future work), GM on orkut-s",
        ["Time(s)", "CPU", "Tasks", "Matches"],
        rows,
        list(data),
        label_header="Run",
    )
    on, off = data["split-on"], data["split-off"]
    checks = [
        Check("splitting preserves the exact match count", on.value == off.value),
        Check(
            "splitting creates finer-grained tasks",
            on.stats["tasks_created"] > off.stats["tasks_created"],
        ),
        Check("splitting is no more than 5% slower", on.total_seconds <= off.total_seconds * 1.05),
    ]
    return ExperimentReport(
        "ablationB", "Recursive task splitting", rendered, data=data, checks=checks
    )


# ----------------------------------------------------------------------
# Ablation C — fault tolerance: checkpointing + failure recovery (§7)
# ----------------------------------------------------------------------

def ablation_fault_tolerance() -> ExperimentReport:
    """Checkpoint overhead and failure recovery (paper §7)."""
    plan = FailurePlan().kill(node_id=3, at_time=0.3, recovery_delay=0.05)
    baseline, with_ckpt, with_failure = _run_cells(
        [
            _cell("mcf", "orkut-s"),
            _cell("mcf", "orkut-s", checkpoint_interval=0.1),
            _cell(
                "mcf", "orkut-s", checkpoint_interval=0.1, failure_plan=plan,
                time_limit=60.0,
            ),
        ]
    )
    rows = [
        [f"{baseline.total_seconds:.3f}", str(len(baseline.value)), "0"],
        [f"{with_ckpt.total_seconds:.3f}", str(len(with_ckpt.value)),
         str(int(with_ckpt.stats["checkpoints"]))],
        [f"{with_failure.total_seconds:.3f}", str(len(with_failure.value)),
         str(int(with_failure.stats["checkpoints"]))],
    ]
    rendered = render_table(
        "Ablation C: fault tolerance (MCF on orkut-s, worker 3 killed at t=0.3s)",
        ["Time(s)", "Clique", "Checkpoints"],
        rows,
        ["no checkpoints", "checkpoints", "checkpoint + failure"],
        label_header="Run",
    )
    checks = [
        Check("checkpointing leaves the result unchanged", with_ckpt.value == baseline.value),
        Check(
            "the job survives a worker failure with the correct result",
            with_failure.ok and len(with_failure.value) == len(baseline.value),
        ),
        Check(
            "checkpoint overhead below 1.5x",
            with_ckpt.total_seconds < baseline.total_seconds * 1.5,
        ),
    ]
    return ExperimentReport(
        "ablationC", "Fault tolerance", rendered,
        data={"baseline": baseline, "ckpt": with_ckpt, "failure": with_failure},
        checks=checks,
    )


# ----------------------------------------------------------------------
# Ablation C2 — chaos: seeded random fault schedules (§7)
# ----------------------------------------------------------------------

def _chaos_plan(seed: int, clean: JobResult, num_nodes: int) -> FailurePlan:
    """Expand ``seed`` into a random fault schedule against ``clean``'s
    timeline: kills that always recover, plus link loss, duplication,
    reordering, slow links and healed partition windows."""
    import random as _random

    rng = _random.Random(seed)
    plan = FailurePlan(seed=seed)
    dur = clean.mining_seconds
    for victim in rng.sample(range(num_nodes), rng.randint(1, 2)):
        plan.kill(
            victim,
            at_time=clean.setup_seconds + rng.uniform(0.2, 0.9) * dur,
            recovery_delay=rng.uniform(0.05, 0.2),
        )
    if rng.random() < 0.7:
        plan.lossy(rng.uniform(0.02, 0.15))
    if rng.random() < 0.5:
        plan.duplicating(rng.uniform(0.02, 0.2))
    if rng.random() < 0.5:
        plan.reordering(rng.uniform(0.05, 0.3), delay=0.002)
    if rng.random() < 0.4:
        plan.slow_link(rng.uniform(1.5, 4.0), src=rng.randrange(num_nodes))
    if rng.random() < 0.4:
        a, b = rng.sample(range(num_nodes), 2)
        start = clean.setup_seconds + rng.uniform(0.1, 0.5) * dur
        plan.partition(src=a, dst=b, start=start, end=start + rng.uniform(0.02, 0.08))
        plan.partition(src=b, dst=a, start=start, end=start + rng.uniform(0.02, 0.08))
    return plan


def ablation_chaos(seeds: Sequence[int] = (0, 1, 2, 3, 4)) -> ExperimentReport:
    """Seeded chaos schedules (§7): results must match fault-free exactly.

    A fault-free TC run fixes the timeline; each seed then expands into
    a random schedule of kills, loss, duplication, reordering, slow
    links and partition windows.  The headline check is exactness: the
    mined value and result count are identical to the fault-free run
    for every seed, with the detection/retry machinery visibly at work.
    """
    (clean,) = _run_cells([_cell("tc", "skitter-s", checkpoint_interval=0.1)])
    num_nodes = EXPERIMENT_SPEC.num_nodes
    plans = {seed: _chaos_plan(seed, clean, num_nodes) for seed in seeds}
    results = _run_cells(
        [
            _cell(
                "tc", "skitter-s", checkpoint_interval=0.1,
                failure_plan=plans[seed], time_limit=120.0,
                label=f"chaos seed {seed}",
            )
            for seed in seeds
        ]
    )
    rows, labels, data = [], [], {"clean": clean}
    exact = 0
    for seed, r in zip(seeds, results):
        match = r.ok and r.value == clean.value and r.num_results == clean.num_results
        exact += match
        data[f"seed {seed}"] = r
        labels.append(f"seed {seed}")
        rows.append(
            [
                format_cell(r),
                "yes" if match else "NO",
                str(int(r.stats["failures_detected"])),
                str(int(r.stats["readmissions"])),
                str(int(r.stats["rpc_retries"])),
                str(int(r.stats["net_fault_dropped"]
                        + r.stats["net_fault_partition_dropped"])),
                str(int(r.stats["net_fault_duplicated"])),
            ]
        )
    rendered = render_table(
        "Ablation C2: chaos schedules (§7), TC on skitter-s "
        f"(fault-free value {clean.value} in {clean.total_seconds:.3f}s)",
        ["Time(s)", "Exact", "Detected", "Readmits", "Retries", "Dropped", "Dup'd"],
        rows,
        labels,
        label_header="Schedule",
    )
    checks = [
        Check(
            "results under every chaos schedule are bit-identical to fault-free",
            exact == len(seeds), f"{exact}/{len(seeds)}",
        ),
        Check(
            "failures are detected by heartbeat silence, not an oracle",
            any(r.stats["failures_detected"] > 0 for r in results),
        ),
    ]
    return ExperimentReport(
        "ablationC2", "Chaos schedules", rendered,
        data=data, checks=checks,
    )


# ----------------------------------------------------------------------
# Ablation D — cache sharing vs multi-process deployment (§5.1)
# ----------------------------------------------------------------------

def ablation_multiprocess() -> ExperimentReport:
    """Shared process cache vs per-process split caches (paper §5.1)."""
    process_counts = (1, 2, 4)
    results = _run_cells(
        [
            _cell("mcf", "orkut-s", processes_per_node=processes)
            for processes in process_counts
        ]
    )
    rows, data = [], {}
    for processes, r in zip(process_counts, results):
        key = f"{processes} process(es)"
        data[key] = r
        rows.append(
            [
                format_cell(r),
                f"{r.stats['cache_hit_rate']:.2f}",
                f"{int(r.stats['vertices_pulled'])}",
                format_cell(r, "net"),
            ]
        )
    rendered = render_table(
        "Ablation D: cache sharing (§5.1), MCF on orkut-s "
        "(one process/node shares the cache across all cores)",
        ["Time(s)", "Hit rate", "Pulls", "Net"],
        rows,
        list(data),
        label_header="Deployment",
    )
    shared = data["1 process(es)"]
    split = data["4 process(es)"]
    checks = [
        Check(
            "sharing the cache raises the hit rate (the paper's default)",
            shared.stats["cache_hit_rate"] > split.stats["cache_hit_rate"],
        ),
        Check(
            "splitting the cache multiplies remote pulls",
            shared.stats["vertices_pulled"] < split.stats["vertices_pulled"],
        ),
        Check(
            "splitting the cache raises network traffic",
            shared.network_bytes < split.network_bytes,
        ),
    ]
    return ExperimentReport(
        "ablationD", "Cache sharing vs multi-process", rendered,
        data=data, checks=checks,
    )


#: Every experiment, in presentation order (EXPERIMENTS.md generation).
ALL_EXPERIMENTS = [
    table1_motivation,
    table2_datasets,
    table3_tc_mcf,
    table4_gm,
    table5_cd_gc,
    fig5_6_utilization,
    fig7_cost,
    fig8_vertical,
    fig9_horizontal,
    fig10_baseline_scalability,
    fig11_bdg,
    fig12_lsh,
    fig13_stealing,
    ablation_cache,
    ablation_splitting,
    ablation_fault_tolerance,
    ablation_chaos,
    ablation_multiprocess,
]
