"""Real fault injection for the native process pool.

A :class:`NativeFaultPlan` is to ``execution="native"`` what
:class:`~repro.sim.failures.FailurePlan` is to the simulator: a
declarative, seeded chaos schedule — data, not code — accepted by
:func:`repro.native.run_native` (and by ``GMinerJob``/``repro.mine``
as the ``failure_plan`` of a native job).  Where the simulated plan
degrades a modelled fabric, this one injures *actual worker
processes*:

* ``crash(worker, on_claim=k)`` — the worker calls ``os._exit`` the
  moment it picks up its ``k``-th chunk (an OOM-kill / segfault
  stand-in: buffered result messages may be lost, exactly like a real
  abrupt death);
* ``hang(worker, on_claim=k, duration=None)`` — the worker stalls
  before executing that chunk; ``duration=None`` stalls until the
  supervisor's lease deadline expires and the process is terminated;
* ``slow(worker, delay)`` — the worker sleeps ``delay`` seconds before
  every chunk (a straggler, exercising self-scheduling and lease
  margins without tripping them);
* ``flaky_chunk(chunk_id, failures=n)`` — the first ``n`` execution
  attempts of that chunk raise a transient error (survivable iff
  ``n <= native_max_chunk_retries``, else the chunk is quarantined and
  the run fails with a structured
  :class:`~repro.native.supervisor.NativeChunkError`);
* ``random_chunk_errors(rate)`` — every (chunk, attempt) pair fails
  with probability ``rate``, drawn deterministically from the plan
  seed, so two runs of the same plan inject the identical schedule
  with no cross-process shared state.

Every query the pool makes against the plan is a pure function of
``(seed, worker id, claim index, chunk id, attempt)``; a plan is
picklable and ships to each worker at spawn.  Faults fire only at
chunk boundaries — a chunk either produces its complete, deterministic
:class:`~repro.native.runtime.ChunkOutcome` or nothing — which is what
lets the supervisor promise results bit-identical to the fault-free
run for every survivable schedule.

Worker ids are lenient on purpose: a spec naming a worker (or chunk)
that never exists simply never fires, so one plan can be reused across
pool sizes, and respawned workers (which get fresh ids) are reachable
only through wildcard (``worker=None``) specs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Exit code of an injected crash — distinguishable from a real
#: segfault (negative signal) or a Python traceback exit in the
#: supervisor's diagnostics.
FAULT_EXIT_CODE = 173

#: "Forever" for a hang with no duration: far beyond any sane lease
#: deadline, so the supervisor always wins the race, while still
#: bounded in case supervision is disabled and the pool is abandoned.
HANG_FOREVER = 3600.0


@dataclass(frozen=True)
class CrashSpec:
    """``os._exit`` when worker ``worker`` starts claim ``on_claim``.

    ``worker=None`` matches every worker, including respawned ones
    (which carry fresh ids a targeted spec can never name).
    """

    worker: Optional[int]
    on_claim: int


@dataclass(frozen=True)
class HangSpec:
    """Stall ``duration`` seconds (``None`` = until terminated) when
    worker ``worker`` starts claim ``on_claim``."""

    worker: Optional[int]
    on_claim: int
    duration: Optional[float]


@dataclass(frozen=True)
class SlowSpec:
    """Sleep ``delay`` seconds before every chunk of worker ``worker``."""

    worker: Optional[int]
    delay: float


@dataclass(frozen=True)
class FlakySpec:
    """Fail the first ``failures`` attempts of chunk ``chunk_id``."""

    chunk_id: int
    failures: int
    message: str


@dataclass
class NativeFaultPlan:
    """A seeded chaos schedule for the native process pool.

    Builder methods return ``self`` so schedules chain fluently::

        plan = (
            NativeFaultPlan(seed=7)
            .crash(0, on_claim=1)
            .flaky_chunk(3, failures=2)
            .slow(1, delay=0.05)
        )
        repro.mine(graph, workload="tc", execution="native",
                   failure_plan=plan)
    """

    seed: int = 0
    crashes: List[CrashSpec] = field(default_factory=list)
    hangs: List[HangSpec] = field(default_factory=list)
    slows: List[SlowSpec] = field(default_factory=list)
    flaky: List[FlakySpec] = field(default_factory=list)
    #: Probability that any given (chunk, attempt) execution raises an
    #: injected transient error; drawn deterministically from ``seed``.
    error_rate: float = 0.0

    # -- builders ------------------------------------------------------

    def crash(self, worker: Optional[int] = None, *, on_claim: int = 0):
        """Kill ``worker`` (``None`` = any) at its ``on_claim``-th chunk."""
        self.crashes.append(CrashSpec(worker=worker, on_claim=on_claim))
        return self

    def hang(
        self,
        worker: Optional[int] = None,
        *,
        on_claim: int = 0,
        duration: Optional[float] = None,
    ):
        """Stall ``worker`` at its ``on_claim``-th chunk.

        ``duration=None`` hangs until the supervisor's lease deadline
        forfeits the chunk and terminates the process; a finite
        ``duration`` models a long GC pause / IO stall the worker
        survives.
        """
        self.hangs.append(
            HangSpec(worker=worker, on_claim=on_claim, duration=duration)
        )
        return self

    def slow(self, worker: Optional[int] = None, *, delay: float = 0.05):
        """Make ``worker`` a straggler: sleep ``delay`` before each chunk."""
        self.slows.append(SlowSpec(worker=worker, delay=delay))
        return self

    def flaky_chunk(
        self, chunk_id: int, *, failures: int = 1, message: str = ""
    ):
        """Fail the first ``failures`` execution attempts of one chunk."""
        self.flaky.append(
            FlakySpec(
                chunk_id=chunk_id,
                failures=failures,
                message=message or f"injected transient fault on chunk {chunk_id}",
            )
        )
        return self

    def random_chunk_errors(self, rate: float):
        """Fail each (chunk, attempt) independently with probability
        ``rate``, deterministically from the plan seed."""
        self.error_rate = rate
        return self

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Fail fast on malformed schedules; raise ``ValueError``.

        Worker/chunk ids are *not* bounds-checked (a spec naming a
        worker the pool never grows simply never fires — the plan stays
        reusable across pool sizes), but negative ids, negative claim
        indices, non-positive durations/delays/failure counts and
        rates outside ``[0, 1]`` are schedule bugs, not chaos inputs.
        """
        for spec in self.crashes:
            self._check_worker(spec.worker, "crash")
            if spec.on_claim < 0:
                raise ValueError(
                    f"crash on_claim must be >= 0 (the index of the chunk "
                    f"pickup that dies); got {spec.on_claim!r}"
                )
        for spec in self.hangs:
            self._check_worker(spec.worker, "hang")
            if spec.on_claim < 0:
                raise ValueError(
                    f"hang on_claim must be >= 0; got {spec.on_claim!r}"
                )
            if spec.duration is not None and not (
                spec.duration > 0 and math.isfinite(spec.duration)
            ):
                raise ValueError(
                    f"hang duration must be a positive number of seconds or "
                    f"None (until terminated); got {spec.duration!r}"
                )
        for spec in self.slows:
            self._check_worker(spec.worker, "slow")
            if not (spec.delay > 0 and math.isfinite(spec.delay)):
                raise ValueError(
                    f"slow delay must be a positive number of seconds; got "
                    f"{spec.delay!r}"
                )
        for spec in self.flaky:
            if spec.chunk_id < 0:
                raise ValueError(
                    f"flaky_chunk chunk_id must be >= 0; got {spec.chunk_id!r}"
                )
            if spec.failures < 1:
                raise ValueError(
                    f"flaky_chunk failures must be >= 1 (0 would inject "
                    f"nothing); got {spec.failures!r}"
                )
        if not (0.0 <= self.error_rate <= 1.0) or math.isnan(self.error_rate):
            raise ValueError(
                f"random_chunk_errors rate must lie in [0, 1]; got "
                f"{self.error_rate!r}"
            )

    @staticmethod
    def _check_worker(worker: Optional[int], kind: str) -> None:
        if worker is not None and worker < 0:
            raise ValueError(
                f"{kind} worker must be a worker id >= 0, or None for any "
                f"worker; got {worker!r}"
            )

    # -- worker-side queries (pure, no shared state) -------------------

    def claim_action(
        self, worker_id: int, claim_index: int
    ) -> Optional[Tuple[str, Optional[float]]]:
        """What happens when ``worker_id`` picks up its
        ``claim_index``-th chunk: ``("crash", None)``, ``("hang",
        duration)`` or ``None``.  Crashes shadow hangs on a tie."""
        for spec in self.crashes:
            if spec.on_claim == claim_index and spec.worker in (None, worker_id):
                return ("crash", None)
        for spec in self.hangs:
            if spec.on_claim == claim_index and spec.worker in (None, worker_id):
                return ("hang", spec.duration)
        return None

    def slow_delay(self, worker_id: int) -> float:
        """Total straggler delay before each chunk of ``worker_id``."""
        return sum(
            spec.delay
            for spec in self.slows
            if spec.worker in (None, worker_id)
        )

    def chunk_failure(self, chunk_id: int, attempt: int) -> Optional[str]:
        """The injected error message for this execution attempt, or
        ``None`` to let it run.  Deterministic per (plan, chunk,
        attempt), so retries make forward progress by construction."""
        for spec in self.flaky:
            if spec.chunk_id == chunk_id and attempt < spec.failures:
                return spec.message
        if self.error_rate > 0.0:
            draw = random.Random(
                self.seed * 1_000_003 + chunk_id * 7_919 + attempt
            ).random()
            if draw < self.error_rate:
                return (
                    f"injected random chunk error "
                    f"(chunk {chunk_id}, attempt {attempt})"
                )
        return None

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.crashes or self.hangs or self.slows or self.flaky
        ) and self.error_rate == 0.0
