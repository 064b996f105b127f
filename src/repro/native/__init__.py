"""Native execution: run G-Miner jobs for real on a process pool.

The bridge from "models the paper's cluster" to "is itself fast":
``GMinerConfig(execution="native")`` (or ``repro.mine(...,
execution="native")``) routes a job through :func:`run_native`, which
executes the same tasks the simulator models across a multiprocess
pool — the parent dispatches chunks to idle workers, the graph
inherited at fork; pickled by ``multiprocessing`` under spawn,
candidate-set work on the configured
:mod:`repro.kernels` backend — and merges per-chunk outcomes by chunk
id so results and total work-unit charges are bit-identical at any
worker count, and (for every schedule-independent workload) to the
simulated run itself.  ``python -m repro.verify.fuzz --native-axis``
enforces the contract differentially; DESIGN.md states it precisely.

The pool is *supervised* (:mod:`repro.native.supervisor`): worker
crashes, hangs and transient chunk errors are retried within bounded
budgets, and a :class:`NativeFaultPlan` (:mod:`repro.native.chaos`),
which also carries those budgets,
injects real seeded faults so the contract is asserted under chaos —
survivable schedules stay bit-identical to the fault-free run;
unsurvivable ones raise a structured :class:`NativeChunkError`.
``python -m repro.verify.fuzz --native-chaos`` fuzzes exactly that.
"""

from repro.native.chaos import FAULT_EXIT_CODE, NativeFaultPlan
from repro.native.engine import (
    default_native_workers,
    graph_payload,
    run_native,
    seed_chunks,
)
from repro.native.runtime import (
    ChunkOutcome,
    execute_chunk,
    make_data_source,
    run_task,
)
from repro.native.supervisor import (
    ChunkFailure,
    NativeChunkError,
    Supervisor,
)

__all__ = [
    "ChunkFailure",
    "ChunkOutcome",
    "FAULT_EXIT_CODE",
    "NativeChunkError",
    "NativeFaultPlan",
    "Supervisor",
    "default_native_workers",
    "execute_chunk",
    "graph_payload",
    "make_data_source",
    "run_native",
    "run_task",
    "seed_chunks",
]
