"""G-Miner runtime configuration.

Every knob the paper's experiments toggle is explicit here: the
partitioner (Figure 11), the LSH task priority queue (Figure 12), task
stealing (Figure 13), the cache policy (§7's RCV discussion), plus the
extension features (recursive task splitting, §9) and fault-tolerance
settings (§7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.cluster import ClusterSpec


@dataclass(frozen=True, kw_only=True)
class GMinerConfig:
    """Configuration for a G-Miner job.

    Fields are keyword-only and validated eagerly in ``__post_init__``
    — a bad knob fails at construction with an actionable message
    instead of deep inside the job.
    """

    cluster: ClusterSpec = field(default_factory=ClusterSpec)

    # -- static load balancing (§6.1) ---------------------------------
    partitioner: str = "bdg"  # "bdg" | "hash"

    # -- task store / LSH priority queue (§4.3, §7) --------------------
    enable_lsh: bool = True
    lsh_signature_size: int = 4
    store_block_tasks: int = 64  # tasks per disk-resident block

    # -- RCV cache (§7) -------------------------------------------------
    cache_policy: str = "rcv"  # "rcv" | "lru" | "fifo"
    cache_capacity_bytes: int = 262_144
    #: §5.1: one process per node shares the cache across all cores
    #: (the default, maximising cache efficiency).  k > 1 models
    #: multi-process deployment: the node's cache budget splits into k
    #: independent caches with no sharing between them.
    processes_per_node: int = 1

    # -- candidate retriever --------------------------------------------
    max_inflight_tasks: int = 8  # CMQ capacity per worker

    # -- task executor ----------------------------------------------------
    task_buffer_batch: int = 16  # tasks flushed from buffer to store at once
    #: Backpressure: the retriever stops feeding the CPQ once this many
    #: tasks are queued per core, keeping the surplus INACTIVE in the
    #: task store where it is cheap to hold (disk-backed) and visible
    #: to task stealing.
    cpq_per_core: int = 1

    # -- dynamic load balancing: task stealing (§6.2) ---------------------
    enable_stealing: bool = True
    steal_batch: int = 16  # Tnum: tasks migrated per MIGRATE
    steal_cost_threshold: float = 512.0  # Tc, against c(t) = |subG| + |candVtxs|
    steal_local_rate_threshold: float = 0.9  # Tr, against lr(t)
    steal_retry_interval: float = 0.02  # idle worker re-REQ period (sim s)

    # -- aggregator / progress (§5.1) --------------------------------------
    agg_interval: float = 0.02  # seconds between aggregator syncs
    progress_interval: float = 0.02  # seconds between progress reports

    # -- fault tolerance (§7) ------------------------------------------------
    #: The failure detector's and the pull RPC's timing are constants
    #: next to their readers (``core/master.py``, ``core/worker.py``).
    checkpoint_interval: Optional[float] = None  # seconds; None disables

    # -- extensions (paper §9 future work) -----------------------------------
    enable_splitting: bool = False
    split_candidate_threshold: int = 256  # split tasks with more candidates

    # -- observability ------------------------------------------------------
    #: Attach a :class:`repro.obs.ObsSession` to the job: metrics
    #: registry + span tracer + exporters (``result.obs`` carries the
    #: finalized snapshot).  Strictly read-only over the simulation —
    #: enabling it cannot change any simulated quantity — and entirely
    #: off (no allocations on the hot path) when False, unless an
    #: ambient :class:`repro.obs.ObsCollector` is installed.
    enable_obs: bool = False

    # -- verification -------------------------------------------------------
    #: Arm the runtime invariant checker (:mod:`repro.verify`): an
    #: :class:`~repro.verify.InvariantMonitor` rides along with the job
    #: and asserts conservation laws (messages, work units, task
    #: lifecycle, cache/store accounting, clock monotonicity) at the
    #: existing barrier points, raising ``InvariantViolation`` with a
    #: minimal event-window repro on failure.  Strictly read-only over
    #: the simulation and zero-overhead when off.  The ``REPRO_VERIFY=1``
    #: environment variable arms it globally without touching configs.
    verify: bool = False

    # -- job limits ------------------------------------------------------------
    time_limit: Optional[float] = None  # simulated seconds; None = unlimited
    #: Cooperative per-job deadline.  Unlike ``time_limit`` (which ends
    #: the run with a normal ``status=TIMEOUT`` result), an overrun
    #: deadline *cancels* the job with a structured
    #: :class:`~repro.core.errors.JobDeadlineExceeded`.  Simulated jobs
    #: measure it on their own virtual clock; native jobs measure
    #: wall-clock seconds and check it cooperatively (between chunks
    #: and on every supervisor tick), tearing the pool down cleanly
    #: before raising.  ``None`` disables it.
    job_deadline: Optional[float] = None

    # -- execution engine ------------------------------------------------------
    #: How the job actually runs.  "sim" (the default) executes on the
    #: discrete-event cluster simulator and reports simulated time;
    #: "native" executes the same tasks for real on a multiprocess pool
    #: (:mod:`repro.native`) and reports wall-clock time.  Results and
    #: total work-unit charges are bit-identical between the two for
    #: every schedule-independent workload (see DESIGN.md's sim-vs-
    #: native equivalence contract); native mode refuses failure plans.
    execution: str = "sim"  # "sim" | "native"
    #: Pool size for native execution; ``None`` uses every host core.
    #: Results never depend on this — only wall-clock time does.
    native_workers: Optional[int] = None
    #: Seed vertices per self-scheduled chunk in native mode.  Purely a
    #: scheduling granularity: results and charges are chunk-invariant.
    native_chunk_size: int = 64
    #: Native supervision: wall-clock seconds a worker may hold one
    #: chunk before the supervisor presumes it hung, terminates it and
    #: retries the chunk elsewhere.  ``None`` uses the engine default
    #: (60s); only meaningful under ``execution="native"``.
    native_chunk_deadline: Optional[float] = None
    #: Native supervision: failed attempts a chunk may accumulate
    #: (worker crashes, lease expiries, transient errors) before it is
    #: quarantined and the run fails with a structured
    #: ``NativeChunkError``.  ``None`` uses the engine default (2).
    native_max_chunk_retries: Optional[int] = None
    #: Native supervision: dead workers the supervisor may replace
    #: before degrading to a smaller pool (and ultimately an in-process
    #: serial fallback).  ``None`` uses the engine default (2).
    native_max_respawns: Optional[int] = None

    # -- set-operation kernels (repro.kernels) ---------------------------------
    #: Backend for sorted-array set operations, pinned for the whole
    #: job.  ``None`` keeps the process-wide default (``auto`` unless
    #: ``kernels.set_backend`` changed it); "auto" resolves once (numpy
    #: when importable, else reference); "reference" / "numpy" /
    #: "bitset" force one.  Backends are value- and
    #: work-unit-identical — this knob only affects wall-clock speed.
    kernel_backend: Optional[str] = None
    #: Accuracy target for the ``sketch`` backend family, as an
    #: ``(epsilon, confidence)`` pair: estimates aim for relative error
    #: ``epsilon`` and every reported confidence interval targets
    #: ``confidence`` two-sided coverage.  ``None`` uses the sketch
    #: default ``(0.05, 0.95)``.  The pair maps monotonically to sketch
    #: width (minwise ``k``) — tighter accuracy costs more
    #: work units.  Only meaningful (and only accepted) with
    #: ``kernel_backend="sketch"``: the exact backends have no error to
    #: trade.
    accuracy: Optional[tuple] = None
    #: Seed for the sketch hash functions.  Estimates are bit-identical
    #: per (graph, config, sketch_seed); varying the seed re-rolls the
    #: randomness for independent trials.  Sketch-backend-only.
    sketch_seed: int = 0

    def __post_init__(self) -> None:
        # Fail fast: a typo'd knob should surface here, at construction,
        # not minutes later inside a worker loop.
        self.validate()

    def replace(self, **kwargs) -> "GMinerConfig":
        """Return a copy with the given fields overridden."""
        unknown = [k for k in kwargs if k not in self.__dataclass_fields__]
        if unknown:
            raise ValueError(
                f"unknown GMinerConfig field(s) {sorted(unknown)}; "
                f"valid fields: {sorted(self.__dataclass_fields__)}"
            )
        return replace(self, **kwargs)

    def sketch_params(self):
        """The resolved :class:`repro.kernels.sketch.SketchParams`.

        ``None`` unless ``kernel_backend="sketch"`` — callers install
        the params for the job's scope only when a sketch run actually
        asked for them.
        """
        if self.kernel_backend != "sketch":
            return None
        from repro.kernels.sketch import DEFAULT_ACCURACY, SketchParams

        epsilon, confidence = self.accuracy or DEFAULT_ACCURACY
        return SketchParams(
            epsilon=epsilon,
            confidence=confidence,
            seed=self.sketch_seed,
        )

    def validate(self) -> None:
        """Check every knob; raise ``ValueError`` with a fix hint.

        Also called from ``__post_init__``, so any constructed config is
        already valid; kept public for callers that mutate copies via
        ``dataclasses.replace`` directly.
        """
        if self.partitioner not in ("bdg", "hash"):
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}: expected 'bdg' "
                "(locality-preserving blocks, the paper's default) or 'hash'"
            )
        if self.cache_policy not in ("rcv", "lru", "fifo"):
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}: expected 'rcv' "
                "(reference-counting, the paper's default), 'lru' or 'fifo'"
            )
        if self.execution not in ("sim", "native"):
            raise ValueError(
                f"unknown execution mode {self.execution!r}: expected 'sim' "
                "(discrete-event simulator, the default) or 'native' "
                "(real multiprocess pool, repro.native)"
            )
        if self.native_workers is not None and self.native_workers < 1:
            raise ValueError(
                f"native_workers must be >= 1 (or None for all host "
                f"cores); got {self.native_workers!r}"
            )
        if self.native_chunk_size < 1:
            raise ValueError(
                f"native_chunk_size must be >= 1; got "
                f"{self.native_chunk_size!r}"
            )
        if self.execution != "native":
            # the supervision knobs govern the real process pool only;
            # silently accepting them on a simulated job would make a
            # "we survived chaos" experiment vacuous
            for knob in (
                "native_chunk_deadline",
                "native_max_chunk_retries",
                "native_max_respawns",
            ):
                if getattr(self, knob) is not None:
                    raise ValueError(
                        f"{knob} only applies to execution='native' "
                        f"(got execution={self.execution!r}); the simulator's "
                        "fault machinery is configured through FailurePlan "
                        "and the §7 knobs instead"
                    )
        if self.native_chunk_deadline is not None and not (
            self.native_chunk_deadline > 0
            and math.isfinite(self.native_chunk_deadline)
        ):
            raise ValueError(
                f"native_chunk_deadline must be a positive (finite) number "
                f"of wall-clock seconds, or None for the engine default; "
                f"got {self.native_chunk_deadline!r}"
            )
        if (
            self.native_max_chunk_retries is not None
            and self.native_max_chunk_retries < 0
        ):
            raise ValueError(
                f"native_max_chunk_retries cannot be negative; got "
                f"{self.native_max_chunk_retries!r} (0 quarantines a chunk "
                "on its first failure)"
            )
        if self.native_max_respawns is not None and self.native_max_respawns < 0:
            raise ValueError(
                f"native_max_respawns cannot be negative; got "
                f"{self.native_max_respawns!r} (0 never replaces a dead "
                "worker: the pool only shrinks)"
            )
        if self.kernel_backend not in (
            None, "auto", "reference", "numpy", "bitset", "sketch",
        ):
            raise ValueError(
                f"unknown kernel_backend {self.kernel_backend!r}: expected "
                "None (process default), 'auto', 'reference', 'numpy', "
                "'bitset' or 'sketch'"
            )
        if self.kernel_backend == "sketch":
            if self.execution == "native":
                raise ValueError(
                    "kernel_backend='sketch' is not yet supported with "
                    "execution='native': the native engine's bit-identity "
                    "contract is defined over exact backends only; run the "
                    "approximate job on the simulator (execution='sim')"
                )
            if self.accuracy is not None:
                try:
                    epsilon, confidence = self.accuracy
                except (TypeError, ValueError):
                    raise ValueError(
                        f"accuracy must be an (epsilon, confidence) pair, "
                        f"e.g. (0.05, 0.95); got {self.accuracy!r}"
                    ) from None
                # delegate range checks (epsilon in (0,1), confidence in
                # [0.5,1)) to the sketch module so the messages match
                from repro.kernels.sketch import validate_accuracy

                validate_accuracy(epsilon, confidence)
            if not isinstance(self.sketch_seed, int) or isinstance(
                self.sketch_seed, bool
            ):
                raise ValueError(
                    f"sketch_seed must be an int; got {self.sketch_seed!r}"
                )
        else:
            # the sketch knobs have no meaning on an exact backend;
            # silently accepting them would make an "approximate run"
            # that was actually exact look like a huge accuracy win
            if self.accuracy is not None:
                raise ValueError(
                    f"accuracy only applies to kernel_backend='sketch' "
                    f"(got kernel_backend={self.kernel_backend!r}); the "
                    "exact backends have no error to trade"
                )
            if self.sketch_seed != 0:
                raise ValueError(
                    f"sketch_seed only applies to kernel_backend='sketch' "
                    f"(got kernel_backend={self.kernel_backend!r})"
                )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be a positive number of simulated "
                f"seconds, or None to disable checkpointing; got "
                f"{self.checkpoint_interval!r}"
            )
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError(
                f"time_limit must be a positive number of simulated seconds, "
                f"or None for no limit; got {self.time_limit!r}"
            )
        if self.job_deadline is not None and not (
            self.job_deadline > 0 and math.isfinite(self.job_deadline)
        ):
            raise ValueError(
                f"job_deadline must be a positive (finite) number of seconds "
                f"(simulated for execution='sim', wall-clock for 'native'), "
                f"or None to disable the deadline; got {self.job_deadline!r}"
            )
        if self.store_block_tasks < 1:
            raise ValueError("store_block_tasks must be >= 1")
        if self.max_inflight_tasks < 1:
            raise ValueError("max_inflight_tasks must be >= 1")
        if self.steal_batch < 1:
            raise ValueError("steal_batch must be >= 1")
        if self.cache_capacity_bytes < 0:
            raise ValueError("cache capacity cannot be negative")
        if self.processes_per_node < 1:
            raise ValueError("processes_per_node must be >= 1")
