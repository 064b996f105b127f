"""The per-layer metric list: name -> ``(unit, better, exact)``.

The single definition the traced pass emits from, ``BENCHMARK.json``'s
``per_layer`` mirrors (the smoke test holds them equal) and
``compare.py`` reads.  *exact* metrics are simulator outputs or pure
counts: identical on every host and after any change that only makes
the host faster, so ``compare.py`` requires them bit-identical between
two result sets of the same seed.  Imports nothing from the program.
"""

from __future__ import annotations

from typing import Dict, Tuple

S, US, COUNT, RATE, RATIO, BYTES = "s", "us", "count", "1/s", "ratio", "bytes"
SIM_S, VIRT_S = "sim_s", "virt_s"  # simulated cluster clock / service virtual clock
LO, HI = "lower", "higher"

#: name -> (unit, better, exact)
LAYER_METRICS: Dict[str, Tuple[str, str, bool]] = {
    "graph.build_s": (S, LO, False),
    "graph.vertices": (COUNT, LO, True),
    "graph.edges": (COUNT, LO, True),
    "graph.adj_view_s": (S, LO, False),
    "partitioning.bdg_s": (S, LO, False),
    "partitioning.edge_cut_share": (RATIO, LO, True),
    "kernels.intersect_count_per_s": (RATE, HI, False),
    "kernels.intersect_many_per_s": (RATE, HI, False),
    "kernels.slice_contains_per_s": (RATE, HI, False),
    "kernels.scanned_items": (COUNT, LO, True),
    "kernels.sketch.build_s": (S, LO, False),
    "kernels.sketch.estimate_per_s": (RATE, HI, False),
    "kernels.sketch.rel_error": (RATIO, LO, True),
    "kernels.sketch.work_ratio": (RATIO, LO, True),
    "kernels.sketch.wall_ratio_vs_bitset": (RATIO, LO, False),
    "mining.seq_s": (S, LO, False),
    "mining.work_units": (COUNT, LO, True),
    "mining.work_units_per_s": (RATE, HI, False),
    "plans.compile_s": (S, LO, False),
    "plans.select_backends_s": (S, LO, False),
    "plans.seq_s": (S, LO, False),
    "plans.candidates_per_s": (RATE, HI, False),
    "core.engine_overhead_s": (S, LO, False),
    "core.engine_overhead_share": (RATIO, LO, False),
    "core.host_us_per_task": (US, LO, False),
    "core.job_begin_s": (S, LO, False),
    "core.job_complete_s": (S, LO, False),
    "core.rcv_insert_per_s": (RATE, HI, False),
    "core.lsh_signature_per_s": (RATE, HI, False),
    "core.job_fixed_s": (S, LO, False),
    "core.tasks_created": (COUNT, LO, True),
    "core.vertices_pulled": (COUNT, LO, True),
    "core.cache_hit_rate": (RATIO, HI, True),
    "core.disk_spills": (COUNT, LO, True),
    "core.tasks_migrated": (COUNT, LO, True),
    "sim.seconds": (SIM_S, LO, True),
    "sim.advance_s": (S, LO, False),
    "sim.events_per_s": (RATE, HI, False),
    "sim.events": (COUNT, LO, True),
    "sim.host_us_per_event": (US, LO, False),
    "sim.network_bytes": (BYTES, LO, True),
    "sim.cpu_utilization": (RATIO, HI, True),
    "sim.peak_memory_bytes": (BYTES, LO, True),
    "native.payload_s": (S, LO, False),
    "native.payload_bytes": (BYTES, LO, True),
    "native.chunks": (COUNT, LO, True),
    "native.inproc_s": (S, LO, False),
    "native.max_chunk_share": (RATIO, LO, False),
    "native.w1_wall_s": (S, LO, False),
    "native.w2_wall_s": (S, LO, False),
    "native.pool_speedup": (RATIO, HI, False),
    "native.pool_cpu_ratio": (RATIO, LO, False),
    "native.steals": (COUNT, LO, False),
    "native.retries": (COUNT, LO, False),
    "native.respawns": (COUNT, LO, False),
    "native.fallback_chunks": (COUNT, LO, False),
    "service.submit_us": (US, LO, False),
    "service.step_us": (US, LO, False),
    "service.graph_for_s": (S, LO, False),
    "service.standalone_s": (S, LO, False),
    "service.overhead_share": (RATIO, LO, False),
    "service.queue_wait_p99_vs": (VIRT_S, LO, True),
    "service.completion_p50_vs": (VIRT_S, LO, True),
    "service.completion_p99_vs": (VIRT_S, LO, True),
    "service.fairness_index": (RATIO, HI, True),
    "service.jobs_rejected": (COUNT, LO, True),
    "service.refused_share": (RATIO, LO, True),
    "obs.on_wall_ratio": (RATIO, LO, False),
    "obs.spans": (COUNT, LO, True),
    "verify.on_wall_ratio": (RATIO, LO, False),
    "bench.trace_overhead_ratio": (RATIO, LO, False),
    "parallel.dataset_cold_s": (S, LO, False),
    "parallel.dataset_warm_s": (S, LO, False),
    "host.calib_s": (S, LO, False),
    "host.steal_share": (RATIO, LO, False),
    "host.nproc": (COUNT, HI, False),
}
