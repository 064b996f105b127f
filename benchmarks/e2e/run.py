"""End-to-end wall-clock benchmark of the G-Miner reproduction.

One command runs everything (six workloads, tracing off, then one traced
pass for the per-layer numbers)::

    PYTHONPATH=src python benchmarks/e2e/run.py            # ~2.5 min
    PYTHONPATH=src python benchmarks/e2e/run.py --quick    # smoke, < 20 s

and the benchmark driver runs one workload and one pass at a time::

    python3 benchmarks/e2e/run.py --workload sim-tc-orkut --seed 7 \
        --seconds 10 --trace 0

printing as its last line ``{"correct", "attempted", "failed", "metrics"}``
with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or
every ``per_layer`` metric (``--trace 1``).

Every measurement happens in a fresh child process with a scrubbed
environment (see :func:`hermetic_env`).  An untraced run is three
children: one measures (set-up, one untimed warm-up, timed iterations
for ``--seconds``, oracle check) and two more only repeat the set-up, so
``setup_s`` is a median of three.  ``README.md`` beside this file
defines every metric.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up is timed from the first line

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

RESULT_SCHEMA = "repro.e2e/1"
#: Variables that silently change what the program does.
SCRUBBED_ENV = ("REPRO_KERNEL_BACKEND", "REPRO_VERIFY", "REPRO_CHAOS_SEEDS")
#: Extra set-up-only children per untraced run (plus the measuring one).
SETUP_PROBES = 2
CHILD_TIMEOUT = 170.0


# ----------------------------------------------------------------------
# child side: the hermetic subprocess; the only place the program is imported
# ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    import measure
    from workloads import WORKLOADS

    leaked = [name for name in SCRUBBED_ENV if name in os.environ]
    if leaked:
        raise SystemExit(f"environment not scrubbed: {leaked}")
    workload = WORKLOADS[args.workload]
    if args.child == "setup":
        ready = measure.set_up(workload, args.seed, args.quick, PROCESS_START)
        detail: Dict[str, Any] = {"setup_s": ready["setup_s"]}
    elif args.child == "measure":
        detail = measure.measure(workload, args.seed, args.seconds, args.quick, PROCESS_START)
    else:
        import layers

        detail = layers.traced_pass(workload, args.seed, args.quick, OUT_DIR)
    print(json.dumps(detail))
    return 0


# ----------------------------------------------------------------------
# parent side: orchestration only, never imports the program
# ----------------------------------------------------------------------


def hermetic_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(kind: str, workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Run one child to completion and parse the JSON on its last line."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", kind, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=ROOT, env=hermetic_env(), stdout=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT, check=False,
    )  # fmt: skip
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: {kind} child failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def run_untraced(workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    detail = spawn("measure", workload, seed, seconds, quick)
    setups = detail["samples"]["setup_s"]
    for _ in range(0 if quick else SETUP_PROBES):
        setups.append(spawn("setup", workload, seed, seconds, quick)["setup_s"])
    detail["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return detail


def check_names(detail: Dict[str, Any], declared: Sequence[Dict[str, Any]]) -> None:
    """The emitted metrics are exactly the ones ``BENCHMARK.json`` names."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in detail["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit(
            f"{detail['workload']}: metrics differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}, unit mismatch {units}"
        )


def contract_line(detail: Dict[str, Any]) -> str:
    return json.dumps(
        {key: detail[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def print_untraced(detail: Dict[str, Any], spec: Dict[str, Any]) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    host = detail["host"]
    print(
        f"\n== {detail['workload']}  seed {detail['seed']} (seeds: {detail['seeded']})  "
        f"{detail['iterations']} timed iterations in {detail['loop_s']:.1f} s"
    )
    for name, metric in detail["metrics"].items():
        samples = detail["samples"].get(name)
        spread = ""
        if samples and len(samples) > 1:
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = f"  median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  n={len(samples)}"
        note = f" ({detail['throughput_unit']} per host s)" if name == "throughput_per_s" else ""
        print(
            f"   {name:<18}{metric['value']:>12.5g} {metric['unit']:<4}{note}{spread}"
            f"  [{bounds[name]['better']} is better, bound {bounds[name]['bound']:.0%}]"
        )
    share = detail["failed"] / detail["attempted"]
    print(
        f"   failed_share      {share:>12.5g}      "
        f"({detail['failed']} of {detail['attempted']} iterations missed the oracle)"
    )
    print(f"   sim.seconds       {detail['sim_seconds']:>12.6g} simulated s (exact; 0 = no simulated clock)")
    print(
        f"   host: steal {host['steal_share']:.1%} of wanted CPU, "
        f"load {host['loadavg']:.2f}, nproc {host['nproc']}"
    )


def print_traced(detail: Dict[str, Any]) -> None:
    print(f"\n== {detail['workload']}  traced pass  (trace: {detail['trace_file']})")
    print(f"   {'span':<34}{'calls':>7}{'total s':>11}{'self s':>11}")
    by_layer: Dict[str, float] = {}
    for row in detail["layer_table"]:
        print(f"   {row['name']:<34}{row['calls']:>7}{row['total_s']:>11.4f}{row['self_s']:>11.4f}")
        layer = row["name"].split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + row["self_s"]
    ranked = sorted(by_layer.items(), key=lambda item: -item[1])
    print("   self time by layer: " + ", ".join(f"{layer} {s:.3f} s" for layer, s in ranked))
    print("   per-layer metrics:")
    zero = []
    for name, metric in detail["metrics"].items():
        if metric["value"] != 0:
            print(f"   {name:<36}{metric['value']:>14.6g} {metric['unit']}")
        else:
            zero.append(name)
    print("   read 0 here (layer not entered, or nothing to count): " + ", ".join(zero))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", choices=("0", "1"), help="only the untraced (0) or traced (1) pass")
    parser.add_argument("--traced", action="store_const", const="1", dest="trace", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="tiny inputs, one short run: a smoke test")
    parser.add_argument("--repeat", type=int, default=1, help="untraced runs per workload, seeds seed..seed+R-1")
    parser.add_argument("--out", help="result set to write (default: out/results.json)")
    parser.add_argument("--child", choices=("measure", "setup", "layers"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(SRC) or not os.path.isfile(SPEC_PATH):
        print("run.py: no program to measure here (src/ or BENCHMARK.json missing)", file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.seconds is None:
        args.seconds = 0.3 if args.quick else float(spec["run_seconds"])
    if args.child:
        return child_main(args)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    selected = [args.workload] if args.workload else names
    driver_mode = args.workload is not None and args.trace is not None

    results: Dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "quick": args.quick,
        "seconds": args.seconds,
        "runs": [],
        "layers": [],
    }
    last: Dict[str, Any] = {}
    for name in selected:
        if args.trace != "1":
            for repeat in range(args.repeat):
                last = run_untraced(name, args.seed + repeat, args.seconds, args.quick)
                check_names(last, spec["end_to_end"])
                results["runs"].append(last)
                if not driver_mode:
                    print_untraced(last, spec)
        if args.trace != "0":
            last = spawn("layers", name, args.seed, args.seconds, args.quick)
            check_names(last, spec["per_layer"])
            results["layers"].append(last)
            if not driver_mode:
                print_traced(last)

    every = results["runs"] + results["layers"]
    failed = sum(d["failed"] for d in every)
    if driver_mode:
        print(contract_line(last))
    else:
        results["env"] = every[0].get("env") or {}
        out = args.out or os.path.join(OUT_DIR, "results.json")
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        attempted = sum(d["attempted"] for d in every)
        print(f"\nresult set: {out}")
        print(f"oracle: {failed} of {attempted} checked operations failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
