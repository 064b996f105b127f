"""The untraced pass, child side: set-up, the timed loop, the oracle check.

Runs inside the hermetic subprocess ``run.py`` spawns; this is where the
program under test is imported and called.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.env import environment_metadata
from repro.parallel.cache import get_build_cache

MIN_ITERATIONS = 3


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children
    (``getrusage``: microsecond resolution, ``os.times`` has 10 ms)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def host_cpu_ticks() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (``None`` off Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Share of the VM's wanted CPU time the hypervisor gave to someone
    else between two ``/proc/stat`` readings (0 where unknown)."""
    if not before or not after or len(after) < 8:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    user, nice, system, _idle, _iowait, irq, softirq, steal = delta[:8]
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted > 0 else 0.0


def peak_rss_mib() -> float:
    """Peak resident set of this process or any reaped child (Linux KiB)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def set_up(workload: Any, seed: int, quick: bool, process_start: float) -> Dict[str, Any]:
    """Everything before the first timed iteration, timed from
    ``process_start`` (the first line the child process executed)."""
    if get_build_cache() is not None:
        raise SystemExit("a BuildCache is installed; runs must build inputs cold")
    state = workload.prepare(seed, quick)
    warm = workload.digest(workload.iterate(state))  # lazy imports, caches
    return {"state": state, "warm": warm, "setup_s": time.perf_counter() - process_start}


def timed_iterations(workload: Any, state: Any, seconds: float) -> Dict[str, List[Any]]:
    """Closed loop, one operation at a time, for at least ``seconds``."""
    walls: List[float] = []
    cpus: List[float] = []
    digests: List[Any] = []
    sims: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ITERATIONS or time.perf_counter() < deadline:
        gc.collect()  # GC stays on; start each iteration from a clean heap
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        answer = workload.iterate(state)
        digest = workload.digest(answer)  # consume the result in the timed region
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        digests.append(digest)
        sims.append(workload.sim_seconds(answer))
    return {"wall_s": walls, "cpu_s": cpus, "digests": digests, "sim_seconds": sims}


def steady(samples: Sequence[float]) -> float:
    """The first decile: the statistic reported for iteration times.

    On a shared host the noise is one-sided -- a co-tenant only ever
    makes an iteration slower -- and comes in bursts that last seconds,
    so the median of a 10 s run follows the host (7-12 % between ten
    runs of one commit on the reference host) where the fast tail
    follows the code (3-8 %).  The median and quartiles are printed
    beside it.
    """
    return statistics.quantiles(samples, n=10, method="inclusive")[0]


def count_failures(workload: Any, digests: Sequence[Any], expected: Any) -> int:
    """Iterations whose answer misses the oracle or differs from the first."""
    return sum(
        1
        for digest in digests
        if digest != digests[0] or not workload.check(digest, expected)
    )


def measure(
    workload: Any, seed: int, seconds: float, quick: bool, process_start: float
) -> Dict[str, Any]:
    """The untraced pass of one workload: every end-to-end metric."""
    ticks0 = host_cpu_ticks()
    ready = set_up(workload, seed, quick, process_start)
    state = ready["state"]
    loop_started = time.perf_counter()
    run = timed_iterations(workload, state, seconds)
    loop_s = time.perf_counter() - loop_started
    ticks1 = host_cpu_ticks()
    digests = [ready["warm"]] + run["digests"]
    failed = count_failures(workload, digests, workload.oracle(state))
    wall = steady(run["wall_s"])
    items = workload.work_items(state, digests[-1])
    return {
        "workload": workload.name,
        "seed": seed,
        "quick": quick,
        "seeded": workload.seeded,
        "iterations": len(run["wall_s"]),
        "loop_s": loop_s,
        "samples": {
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "setup_s": [ready["setup_s"]],
        },
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": steady(run["cpu_s"]), "unit": "s"},
            "throughput_per_s": {"value": items / wall, "unit": "1/s"},
            "setup_s": {"value": ready["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mib(), "unit": "MiB"},
        },
        "throughput_unit": workload.throughput_unit,
        "attempted": len(digests),
        "failed": failed,
        "correct": failed == 0,
        # simulator outputs of the untraced run: exact, never gated by a bound
        "sim_seconds": run["sim_seconds"][-1],
        "host": {
            "steal_share": steal_share(ticks0, ticks1),
            "loadavg": os.getloadavg()[0],
            "nproc": os.cpu_count(),
        },
        "env": environment_metadata(),
    }


