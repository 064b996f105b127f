"""Message vocabulary of the G-Miner protocol.

Everything workers and the master exchange: vertex pulls (§4.3),
aggregator sync and progress reports (§5.1), the task-stealing
REQ/MIGRATE/No_Task protocol (§6.2), checkpoint commands and failure
notices (§7).  Every message knows its serialised size so the network
model can charge it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.task import Task
from repro.graph.graph import VertexData

_HEADER = 16  # framing bytes per message (incl. sequence-number slot)


class _Fixed:
    """A message whose body is always ``_BODY`` bytes."""

    _BODY = 0

    def size_bytes(self) -> int:
        return _HEADER + self._BODY


@dataclass
class PullRequest:
    """Candidate retriever → remote worker: fetch these vertices.

    ``seq`` identifies the RPC so retransmitted requests can be matched
    to (possibly duplicated) responses.
    """

    requester: int
    vids: Tuple[int, ...]
    seq: int = -1

    def size_bytes(self) -> int:
        return _HEADER + 8 * len(self.vids)


@dataclass
class PullResponse:
    """Remote worker → requester: the pulled vertex data.

    Echoes the request's ``seq`` so the requester can suppress
    duplicate deliveries (at-least-once → effectively-once).
    """

    vertices: Tuple[VertexData, ...]
    seq: int = -1

    def size_bytes(self) -> int:
        return _HEADER + sum(v.estimate_size() for v in self.vertices)


@dataclass
class AggReport(_Fixed):
    """Worker → master: local aggregator partial."""

    worker: int
    partial: Any
    _BODY = 16


@dataclass
class AggBroadcast(_Fixed):
    """Master → workers: the merged global aggregate."""

    value: Any
    _BODY = 16


@dataclass
class ProgressReport(_Fixed):
    """Worker → master: pipeline occupancy for the progress table."""

    worker: int
    store_size: int
    cmq_size: int
    cpq_size: int
    busy_cores: int
    buffer_size: int
    idle: bool
    _BODY = 48


@dataclass
class StealRequest(_Fixed):
    """Idle worker → master: REQ for more tasks (§6.2)."""

    worker: int
    _BODY = 8


@dataclass
class MigrateCommand(_Fixed):
    """Master → loaded worker: ship up to ``count`` tasks to ``dest``."""

    dest: int
    count: int
    _BODY = 16


@dataclass
class TaskMigration:
    """Loaded worker → idle worker: the migrated tasks themselves.

    ``seq`` lets the receiver deduplicate retransmissions: applying the
    same migration twice would double-run its tasks and corrupt the
    global live-task count.
    """

    source: int
    tasks: List[Task] = field(default_factory=list)
    seq: int = -1

    def size_bytes(self) -> int:
        return _HEADER + sum(int(t.estimate_size()) for t in self.tasks)


@dataclass
class MigrationAck(_Fixed):
    """Migration destination → source: tasks received; stop resending."""

    worker: int
    seq: int
    _BODY = 16


@dataclass
class NoTask(_Fixed):
    """Victim (via master) → requester: nothing worth migrating."""

    source: int
    _BODY = 0


@dataclass
class CheckpointCommand(_Fixed):
    """Master → workers: snapshot your state to HDFS now (§7)."""

    epoch: int
    _BODY = 8


@dataclass
class WorkerDown(_Fixed):
    """Master → workers: this worker is unreachable; park its pulls.

    ``view`` is the master's membership version at the time of the
    change: receivers discard notices older than the latest view they
    applied, so a reordered stale notice cannot resurrect (or re-bury)
    a worker.
    """

    worker: int
    view: int
    _BODY = 8


@dataclass
class WorkerUp(_Fixed):
    """Master → workers: recovered; re-issue parked pulls."""

    worker: int
    view: int
    _BODY = 8


@dataclass
class MembershipView:
    """Master → workers: the full down-set, periodically re-broadcast.

    Individual ``WorkerDown``/``WorkerUp`` notices ride an unreliable
    fabric — any of them can be lost.  The monitor therefore gossips
    its complete membership view every heartbeat interval; receivers
    reconcile against it, so a lost notice heals within one tick
    instead of wedging a worker forever.
    """

    down: Tuple[int, ...]
    view: int

    def size_bytes(self) -> int:
        return _HEADER + 8 + 8 * len(self.down)


@dataclass
class Heartbeat(_Fixed):
    """Worker → master: I am alive (§7's liveness signal).

    The master's failure monitor declares a worker suspected, then
    confirmed dead, from heartbeat silence alone — detection is a real
    protocol, not an oracle callback.  ``incarnation`` increments on
    every reboot so the master can detect a crash-and-fast-recovery it
    never saw as heartbeat silence (the classic amnesia window).
    """

    worker: int
    incarnation: int = 0
    _BODY = 12
