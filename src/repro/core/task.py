"""The task model (paper §4.2).

A :class:`Task` is an independent graph-mining unit with three fields:
the growing subgraph ``subG``, the ``candidates`` it wants next, and an
application-defined ``context``.  Its lifetime walks the paper's four
statuses:

* **ACTIVE** — being processed by ``update``;
* **INACTIVE** — parked in the task store, waiting for remote pulls;
* **READY** — all remote candidates are cached, queued for compute;
* **DEAD** — finished (result reported) or confirmed fruitless.

Applications subclass :class:`Task` and implement ``update``, which
receives the candidate vertex objects and either calls :meth:`pull`
(requesting next-round candidates) or :meth:`finish`.  All computation
inside ``update`` must be charged via :meth:`charge` so the simulated
cores can account it.
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.subgraph import Subgraph
from repro.graph.graph import VertexData

_next_task_id = 0


def _alloc_task_id() -> int:
    global _next_task_id
    tid = _next_task_id
    _next_task_id += 1
    return tid


def peek_task_id() -> int:
    """The id the next created task will get (process-global).

    Task ids never reset, so two same-seed runs in one process see
    shifted ids; observability subtracts the value captured at job
    start to keep snapshots byte-identical across runs.
    """
    return _next_task_id


class TaskStatus(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    READY = "ready"
    DEAD = "dead"


class TaskEnv:
    """What the runtime exposes to ``update``.

    ``aggregated`` is the latest globally aggregated value the worker
    has seen (e.g. the global max-clique bound) — possibly slightly
    stale, exactly as in the real system where the aggregator syncs
    periodically.  ``push_to_aggregator`` offers a local value for the
    next sync.
    """

    def __init__(
        self,
        worker_id: int,
        aggregated: Any = None,
        push: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.aggregated = aggregated
        self._push = push

    def push_to_aggregator(self, value: Any) -> None:
        if self._push is not None:
            self._push(value)


#: The attributes :meth:`Task.__init__` declares (and :meth:`Task.clone`
#: handles itself); anything else on an instance is subclass state.
_BASE_FIELDS = frozenset({
    "task_id", "seed", "subgraph", "candidates", "context", "round", "status",
    "owner_worker", "to_pull", "_finished", "result", "_work_units",
    "_held_refs", "_accounted_size",
})


class Task:
    """Base class for application tasks (the paper's ``Task`` template).

    Subclasses implement :meth:`update`.  The constructor mirrors task
    generation from a seed vertex: ``subG`` starts as the seed, and the
    subclass typically calls :meth:`pull` immediately with the initial
    candidates.
    """

    def __init__(self, seed: VertexData) -> None:
        self.task_id: int = _alloc_task_id()
        self.seed = seed
        self.subgraph = Subgraph()
        self.subgraph.add_node(seed.vid)
        self.candidates: List[int] = []
        self.context: Any = None
        self.round: int = 0
        self.status = TaskStatus.ACTIVE
        self.owner_worker: Optional[int] = None
        # populated by the runtime around each update() call
        self.to_pull: Set[int] = set()
        self._finished = False
        self.result: Any = None
        self._work_units = 0.0
        # runtime bookkeeping: the cached/overflow vertices this task
        # currently pins, and the bytes its worker has accounted for it
        self._held_refs: Set[int] = set()
        self._accounted_size = 0

    # -- API used inside update() -------------------------------------

    def charge(self, units: float = 1.0) -> None:
        """Account computation performed by ``update``."""
        self._work_units += units

    def pull(self, candidate_ids: Iterable[int]) -> None:
        """Request these vertices as next-round candidates (Listing 1's
        ``pull``).  The runtime fetches whatever is not local/cached."""
        self.candidates = sorted(set(candidate_ids))
        self.to_pull = set(self.candidates)

    def finish(self, result: Any = None) -> None:
        """Mark the task dead; ``result`` is reported to the worker."""
        self._finished = True
        self.result = result
        self.candidates = []
        self.to_pull = set()

    # -- to be implemented by applications ------------------------------

    def update(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> None:
        """One round of the mining computation (abstract)."""
        raise NotImplementedError

    def spawn(self) -> List["Task"]:
        """Optional: child tasks created by this round (task splitting).

        The runtime collects these after each ``update``; the default
        is no children.  Subclasses supporting the recursive-splitting
        extension override :meth:`split` instead and the runtime calls
        it when a task exceeds the split threshold.
        """
        return []

    def split(self) -> Optional[List["Task"]]:
        """Split this task into smaller ones (extension, §9).

        Return ``None`` when the task cannot or need not split.
        """
        return None

    # -- runtime hooks ----------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._finished

    def take_work(self) -> float:
        units = self._work_units
        self._work_units = 0.0
        return units

    def run_round(self, cand_objs: Dict[int, VertexData], env: TaskEnv) -> float:
        """Execute one update round; returns work units charged."""
        self.round += 1
        self.to_pull = set()
        self.update(cand_objs, env)
        return self.take_work()

    def clone(self) -> "Task":
        """Independent copy, as logged on migration and written to a
        checkpoint: equal state, no mutable member shared.  Immutable
        members (ids, counters, flags, the frozen seed record) are
        shared; the mutable ones declared here are copied by hand."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__)
        out.subgraph = self.subgraph.copy()
        out.candidates = list(self.candidates)
        out.to_pull = set(self.to_pull)
        out._held_refs = set(self._held_refs)
        out.context = copy.deepcopy(self.context)
        out.result = copy.deepcopy(self.result)
        self._clone_extra(out)
        return out

    def _clone_extra(self, out: "Task") -> None:
        """Give ``out`` its own copy of the subclass's mutable members.
        The default deep-copies every attribute :class:`Task` does not
        declare (always correct); a subclass holding immutable records
        in plain containers overrides it to copy the containers only."""
        for name in self.__dict__.keys() - _BASE_FIELDS:
            setattr(out, name, copy.deepcopy(getattr(self, name)))

    # -- cost model ---------------------------------------------------------

    def estimate_size(self) -> int:
        """Byte estimate for memory accounting and migration cost."""
        return (
            64
            + self.subgraph.estimate_size()
            + 8 * len(self.candidates)
            + self.context_size()
        )

    def context_size(self) -> int:
        """Byte estimate of the context; override for heavy contexts
        (e.g. graph matching's partial embeddings)."""
        return 16

    def migration_cost(self) -> float:
        """The paper's c(t) = |t.subG| + |t.candVtxs| (Eq. 2)."""
        return self.subgraph.num_nodes + len(self.candidates)

    def local_rate(self, num_to_pull: int) -> float:
        """The paper's lr(t) (Eq. 3): fraction of candidates local."""
        if not self.candidates:
            return 1.0
        return (len(self.candidates) - num_to_pull) / len(self.candidates)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(id={self.task_id}, seed={self.seed.vid}, "
            f"round={self.round}, status={self.status.value})"
        )
