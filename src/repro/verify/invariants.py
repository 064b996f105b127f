"""Runtime invariant checking for the simulated G-Miner runtime.

An :class:`InvariantMonitor` rides along with one job (armed by
``GMinerConfig(verify=True)`` or ``REPRO_VERIFY=1``) and asserts the
simulator's conservation laws at its existing barrier points:

* **message conservation** — every message offered to the fabric is
  eventually delivered, dropped (for a counted reason) or still in
  flight: ``offered == delivered + dropped + in_flight``;
* **work conservation** — the work units workers submit to their core
  pools equal the units the pools independently accumulate at dispatch;
* **kernel metering** — set-operation work the vectorised kernels
  report through the metering hook never exceeds the work charged to
  the cores (a kernel batch whose cost was never billed is a bug);
* **clock monotonicity** — the simulated clock never runs backwards;
* **task conservation** — tasks created + restored equal tasks dead +
  lost-to-fault once the job finishes, and the per-worker completion
  counters agree with the controller;
* **cache / store accounting** — RCV cache byte usage matches the sum
  of resident entries and stays within capacity, reference counts are
  sane, overflow slots are pinned, and the task store keeps exactly
  its head block in memory.

The monitor is strictly **read-only** over the simulation: it never
schedules events, sends messages or draws randomness, so enabling it
cannot change any simulated quantity — fault-free runs stay
byte-identical.  When disabled the instrumented sites cost one
``is None`` branch and allocate nothing; :func:`allocation_counts`
proves it the same way ``repro.obs`` does.
"""

from __future__ import annotations

import math
import os
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Process-wide allocation probes.  Monitors and window records are the
#: only things this module allocates; a run with verification off must
#: leave both counters untouched (asserted in tests/test_verify.py).
_monitors_created = 0
_records_created = 0


def allocation_counts() -> Dict[str, int]:
    """Snapshot of the module's allocation counters (zero-overhead probe)."""
    return {"monitors": _monitors_created, "records": _records_created}


def verify_env_enabled(environ=os.environ) -> bool:
    """True when ``REPRO_VERIFY`` asks for invariant checking."""
    return environ.get("REPRO_VERIFY", "") not in ("", "0")


class InvariantViolation(AssertionError):
    """A conservation law failed; carries a structured, replayable repro.

    ``window`` is the monitor's bounded ring of recent events (oldest
    first) — the minimal context needed to replay the failure by hand
    — and :meth:`to_dict` flattens everything for JSON persistence.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        site: str = "",
        time: float = 0.0,
        observed: Any = None,
        expected: Any = None,
        window: Tuple[Tuple[float, str, str], ...] = (),
    ) -> None:
        self.invariant = invariant
        self.site = site
        self.time = time
        self.observed = observed
        self.expected = expected
        self.window = tuple(window)
        lines = [
            f"invariant {invariant!r} violated at {site or '?'} "
            f"(t={time:.6f}): {message}"
        ]
        if observed is not None or expected is not None:
            lines.append(f"  observed={observed!r} expected={expected!r}")
        if self.window:
            lines.append(
                f"  last {len(self.window)} recorded events (oldest first):"
            )
            lines.extend(
                f"    t={t:.6f} [{s}] {e}" for t, s, e in self.window
            )
        super().__init__("\n".join(lines))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "site": self.site,
            "time": self.time,
            "observed": repr(self.observed),
            "expected": repr(self.expected),
            "window": [
                {"time": t, "site": s, "event": e} for t, s, e in self.window
            ],
        }


class InvariantMonitor:
    """Conservation-law checker for one job.

    The runtime calls the ``on_*`` accounting hooks from its hot paths
    (each guarded by a single ``verify is None`` branch when disabled)
    and the ``check_*`` methods at its existing barrier points — the
    per-worker progress tick and end of job — so the monitor itself
    introduces no new simulated events.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        window: int = 64,
    ) -> None:
        global _monitors_created
        _monitors_created += 1
        self._clock = clock or (lambda: 0.0)
        self._window: deque = deque(maxlen=window)
        self.checks = 0
        self.violations = 0
        # -- message conservation --------------------------------------
        self.net_offered = 0
        self.net_delivered = 0
        self.net_dropped: Dict[str, int] = {}
        self.net_duplicated = 0  # fault-injected extra copies
        self.net_inflight = 0
        # -- work conservation ------------------------------------------
        self.work_performed = 0.0
        self.kernel_scanned = 0.0
        # -- clock / master monotonicity --------------------------------
        self.max_event_time = 0.0
        self._last_view = -1

    # -- recording / failing -------------------------------------------

    def record(self, site: str, event: str) -> None:
        """Append one event to the bounded repro window."""
        global _records_created
        _records_created += 1
        self._window.append((self._clock(), site, event))

    def fail(
        self,
        invariant: str,
        message: str,
        *,
        site: str = "",
        observed: Any = None,
        expected: Any = None,
    ) -> None:
        self.violations += 1
        raise InvariantViolation(
            invariant,
            message,
            site=site,
            time=self._clock(),
            observed=observed,
            expected=expected,
            window=tuple(self._window),
        )

    def require(
        self,
        condition: bool,
        invariant: str,
        message: str,
        *,
        site: str = "",
        observed: Any = None,
        expected: Any = None,
    ) -> None:
        self.checks += 1
        if not condition:
            self.fail(
                invariant,
                message,
                site=site,
                observed=observed,
                expected=expected,
            )

    # -- sim.engine -----------------------------------------------------

    def on_sim_event(self, now: float, event_time: float) -> None:
        """Called as the run loop advances the clock to ``event_time``."""
        if event_time < now:
            self.fail(
                "clock-monotonic",
                "event popped before the current virtual time",
                site="sim.engine",
                observed=event_time,
                expected=f">= {now}",
            )
        self.max_event_time = event_time

    # -- sim.network -----------------------------------------------------

    def on_net_offered(self, src: int, dst: int, payload: Any) -> None:
        self.net_offered += 1
        self.record("net", f"offer {type(payload).__name__} {src}->{dst}")

    def on_net_dropped(self, reason: str, src: int, dst: int) -> None:
        self.net_dropped[reason] = self.net_dropped.get(reason, 0) + 1
        self.record("net", f"drop[{reason}] {src}->{dst}")

    def on_net_accepted(self, copies: int) -> None:
        """``copies`` deliveries scheduled (1 + fault-injected duplicates)."""
        self.net_inflight += copies
        self.net_duplicated += copies - 1

    def on_net_settled(self, message: Any, delivered: bool) -> None:
        self.net_inflight -= 1
        if self.net_inflight < 0:
            self.fail(
                "message-conservation",
                "more deliveries settled than sends accepted",
                site="sim.network",
                observed=self.net_inflight,
                expected=">= 0",
            )
        if delivered:
            self.net_delivered += 1
        else:
            self.on_net_dropped(
                "dst_down", getattr(message, "src", -1), getattr(message, "dst", -1)
            )

    def check_network(self, network) -> None:
        """Barrier check: the fabric's books balance.

        Fault-injected duplicates mean one offered message can settle
        more than once, so the duplicated copies appear on the offered
        side of the ledger.
        """
        dropped = sum(self.net_dropped.values())
        self.require(
            self.net_offered + self.net_duplicated
            == self.net_delivered + dropped + self.net_inflight,
            "message-conservation",
            "messages offered + duplicated != delivered + dropped + in-flight",
            site="sim.network",
            observed=(
                f"offered={self.net_offered} duplicated={self.net_duplicated} "
                f"delivered={self.net_delivered} "
                f"dropped={dict(sorted(self.net_dropped.items()))} "
                f"inflight={self.net_inflight}"
            ),
            expected="offered + duplicated == delivered + dropped + inflight",
        )
        # cross-check against the fabric's own independent counter:
        # messages_sent counts exactly the offers that survived the
        # endpoint-down gate
        accepted = self.net_offered - self.net_dropped.get("endpoint_down", 0)
        self.require(
            network.messages_sent == accepted,
            "message-conservation",
            "the fabric's messages_sent disagrees with the monitor",
            site="sim.network",
            observed=network.messages_sent,
            expected=accepted,
        )

    # -- work / kernels ---------------------------------------------------

    def on_work(self, units: float, site: str) -> None:
        """A worker handed ``units`` of computation to its core pool."""
        if units < 0:
            self.fail(
                "work-conservation",
                "negative work submitted",
                site=site,
                observed=units,
                expected=">= 0",
            )
        self.work_performed += units

    def kernel_batch(self, op: str, units: float) -> None:
        """Metering hook: a vectorised kernel performed ``units`` of work."""
        self.kernel_scanned += units

    def check_work(self, nodes) -> None:
        """Barrier check: pools and workers agree on work done so far."""
        pool_total = sum(node.cores.total_work_units for node in nodes)
        self.require(
            math.isclose(
                pool_total, self.work_performed, rel_tol=1e-9, abs_tol=1e-6
            ),
            "work-conservation",
            "core pools accumulated different work than workers performed",
            site="sim.cpu",
            observed=pool_total,
            expected=self.work_performed,
        )
        self.require(
            self.kernel_scanned <= self.work_performed + 1e-6,
            "kernel-metering",
            "kernels reported more work than was ever charged to cores",
            site="kernels",
            observed=self.kernel_scanned,
            expected=f"<= {self.work_performed}",
        )

    # -- core.worker -------------------------------------------------------

    def check_worker(self, worker) -> None:
        """Barrier check: one worker's cache/store/pipeline accounting."""
        site = f"worker[{worker.worker_id}]"
        for index, cache in enumerate(worker.caches):
            # the cache checks its own laws (byte accounting, capacity,
            # refcounts >= 0, zero-reference index sound)
            self.checks += 1
            for law, defect in cache.audit():
                self.fail(
                    law,
                    f"cache {index}: {defect}",
                    site=site,
                    observed=defect,
                    expected="a sound cache",
                )
        for vid, (data, refs) in worker.overflow.items():
            self.require(
                refs >= 1,
                "overflow-refs",
                f"overflow slot {vid} is resident but unreferenced",
                site=site,
                observed=refs,
                expected=">= 1",
            )
        store = worker.store
        resident_tasks = sum(len(b.entries) for b in store._blocks)
        self.require(
            len(store) == resident_tasks,
            "store-accounting",
            "task store size counter diverged from its blocks",
            site=site,
            observed=len(store),
            expected=resident_tasks,
        )
        for block in store._blocks[1:]:
            if block.in_memory:
                self.fail(
                    "store-memory-bound",
                    "a non-head task store block is resident in memory",
                    site=site,
                    observed=f"{len(store._blocks)} blocks",
                    expected="only the head block in memory",
                )
        for task_id in worker.cmq:
            self.require(
                task_id in worker.live_tasks,
                "task-conservation",
                f"CMQ entry {task_id} refers to a task that is not live",
                site=site,
                observed=task_id,
                expected="a live task id",
            )

    # -- core.master -------------------------------------------------------

    def check_master(self, master) -> None:
        """Barrier check: membership/view bookkeeping is consistent."""
        site = "master"
        recovery = master.recovery
        if recovery is None:
            return  # no failure plan or checkpoints: nobody is ever down
        if recovery.view < self._last_view:
            self.fail(
                "view-monotonic",
                "the membership view number went backwards",
                site=site,
                observed=recovery.view,
                expected=f">= {self._last_view}",
            )
        self._last_view = recovery.view
        overlap = recovery.suspected & recovery.down_workers
        self.require(
            not overlap,
            "membership-sanity",
            "workers simultaneously suspected and confirmed down",
            site=site,
            observed=sorted(overlap),
            expected="disjoint sets",
        )
        stale = set(master.progress_table) & recovery.down_workers
        self.require(
            not stale,
            "membership-sanity",
            "progress table retains entries for confirmed-down workers",
            site=site,
            observed=sorted(stale),
            expected="no down workers in the progress table",
        )

    # -- core.job ----------------------------------------------------------

    def check_end_of_job(self, *, controller, workers, master, cluster) -> None:
        """The full conservation audit at job completion (or abort).

        The network, work and per-worker checks hold at any barrier —
        in-flight quantities appear on both sides — so they run even
        for OOM/TIMEOUT aborts.  The task-conservation ledger only
        balances once the controller declares the job finished.
        """
        self.check_network(cluster.network)
        self.check_work(cluster.nodes)
        for worker in workers:
            self.check_worker(worker)
        if master is not None:
            self.check_master(master)
        if not controller.finished:
            return
        self.require(
            controller.live == 0,
            "task-conservation",
            "job finished with live tasks outstanding",
            site="core.job",
            observed=controller.live,
            expected=0,
        )
        created = controller.total_created
        restored = controller.total_restored
        dead = controller.total_dead
        lost = controller.total_lost
        self.require(
            created + restored == dead + lost,
            "task-conservation",
            "spawned + restored tasks != completed + lost-to-fault",
            site="core.job",
            observed=(
                f"created={created} restored={restored} "
                f"dead={dead} lost={lost}"
            ),
            expected="created + restored == dead + lost",
        )
        completed = sum(w.stats.tasks_completed for w in workers)
        self.require(
            completed == dead,
            "task-conservation",
            "worker completion counters disagree with the controller",
            site="core.job",
            observed=completed,
            expected=dead,
        )

    def summary(self) -> Dict[str, Any]:
        """Counters for diagnostics (never part of result fingerprints)."""
        return {
            "checks": self.checks,
            "violations": self.violations,
            "net_offered": self.net_offered,
            "net_delivered": self.net_delivered,
            "net_dropped": dict(sorted(self.net_dropped.items())),
            "net_duplicated": self.net_duplicated,
            "net_inflight": self.net_inflight,
            "work_performed": self.work_performed,
            "kernel_scanned": self.kernel_scanned,
        }
