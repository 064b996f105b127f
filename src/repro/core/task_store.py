"""The task store: a disk-backed, LSH-ordered task priority queue.

Paper §4.3/§7: inactive tasks are ordered by an LSH signature of their
remote-candidate sets, so consecutively dequeued tasks share pulls and
hit the RCV cache.  The queue is stored as fixed-capacity blocks —
only the head block lives in memory, the rest on (simulated) disk —
bounding memory while hiding block I/O under computation.

With ``enable_lsh=False`` (Figure 12's ablation) tasks are keyed by
insertion order, degrading the queue to FIFO.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set, Tuple

from repro.core.lsh import MinHashLSH
from repro.core.task import Task, TaskStatus
from repro.sim.disk import Disk

#: Sort key: (LSH signature, insertion sequence).
_Key = Tuple[Tuple[int, ...], int]


@dataclass
class _Block:
    """One fixed-capacity run of key-ordered tasks."""

    entries: List[Tuple[_Key, Task]] = field(default_factory=list)
    in_memory: bool = True

    @property
    def size_bytes(self) -> int:
        return sum(task.estimate_size() for _, task in self.entries)

    @property
    def max_key(self) -> _Key:
        return self.entries[-1][0]


class TaskStore:
    """Priority queue of INACTIVE tasks with bounded memory."""

    def __init__(
        self,
        disk: Disk,
        block_tasks: int = 64,
        lsh: Optional[MinHashLSH] = None,
        on_alloc: Optional[Callable[[int], None]] = None,
        on_free: Optional[Callable[[int], None]] = None,
        notify: Optional[Callable[[], None]] = None,
        block_bytes: int = 262_144,
    ) -> None:
        if block_tasks < 1:
            raise ValueError("block capacity must be >= 1")
        if block_bytes < 1:
            raise ValueError("block byte capacity must be >= 1")
        self.disk = disk
        self.block_tasks = block_tasks
        self.block_bytes = block_bytes
        self.lsh = lsh
        self._on_alloc = on_alloc or (lambda n: None)
        self._on_free = on_free or (lambda n: None)
        self._notify = notify or (lambda: None)
        self._blocks: List[_Block] = []
        self._seq = 0
        self._size = 0
        self._loading = False
        # bumped per load and by drain_all: a load whose token is stale
        # (its node failed mid-load) completes as a no-op
        self._load_token = 0
        self.disk_spills = 0
        self.disk_loads = 0

    # -- keys -------------------------------------------------------------

    def _key_for(self, task: Task) -> _Key:
        self._seq += 1
        if self.lsh is not None:
            return (self.lsh.signature(task.to_pull), self._seq)
        # LSH disabled (Figure 12 ablation): a concurrent pipeline's
        # dequeue order carries no locality at scale.  Our reduced-scale
        # simulation seeds tasks in vertex order, which would otherwise
        # hand the no-LSH store an artificial block-coherent order, so
        # orderlessness is represented by a hashed key.
        scrambled = (self._seq * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return ((scrambled,), self._seq)

    # -- size --------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def loading(self) -> bool:
        return self._loading

    # -- insertion -------------------------------------------------------------

    def insert_batch(self, tasks: List[Task]) -> None:
        """Insert a flushed task-buffer batch, keyed and placed in order.

        Tasks landing in the in-memory head block are accounted as
        memory; tasks landing in later blocks are charged as a batched
        disk write.
        """
        spilled_bytes = 0
        for task in tasks:
            task.status = TaskStatus.INACTIVE
            key = self._key_for(task)
            spilled_bytes += self._insert_one(key, task)
        if spilled_bytes:
            self.disk_spills += 1
            self.disk.write(spilled_bytes, lambda: None)
        self._notify()

    def _insert_one(self, key: _Key, task: Task) -> int:
        """Place one task; returns bytes written to disk (0 if in-memory)."""
        self._size += 1
        if not self._blocks:
            self._blocks.append(_Block(entries=[(key, task)], in_memory=True))
            self._on_alloc(task.estimate_size())
            return 0
        index = self._find_block(key)
        block = self._blocks[index]
        keys = [k for k, _ in block.entries]
        pos = bisect.bisect_right(keys, key)
        block.entries.insert(pos, (key, task))
        written = 0
        if block.in_memory:
            self._on_alloc(task.estimate_size())
        else:
            written = task.estimate_size()
        if len(block.entries) > self.block_tasks or (
            len(block.entries) > 1 and block.size_bytes > self.block_bytes
        ):
            written += self._split_block(index)
        return written

    def _find_block(self, key: _Key) -> int:
        for i, block in enumerate(self._blocks):
            if block.entries and key <= block.max_key:
                return i
        return len(self._blocks) - 1

    def _split_block(self, index: int) -> int:
        """Split an overfull block; the upper half spills if splitting
        the head (only the head block stays in memory)."""
        block = self._blocks[index]
        mid = len(block.entries) // 2
        upper = _Block(entries=block.entries[mid:], in_memory=False)
        block.entries = block.entries[:mid]
        self._blocks.insert(index + 1, upper)
        written = 0
        if block.in_memory:
            # the upper half moves from memory to disk
            upper_bytes = upper.size_bytes
            self._on_free(upper_bytes)
            written = upper_bytes
        return written

    # -- dequeue ------------------------------------------------------------------

    def pop(self) -> Optional[Task]:
        """Dequeue the highest-priority task, or ``None`` when nothing
        is immediately available (empty, or the head block is still
        being loaded from disk — the caller re-pumps on notify)."""
        if self._loading or self._size == 0:
            return None
        head = self._head_in_memory()
        if head is None:
            return None  # load scheduled; notify will re-pump
        key, task = head.entries.pop(0)
        self._size -= 1
        self._on_free(task.estimate_size())
        if not head.entries:
            self._blocks.pop(0)
        return task

    def _head_in_memory(self) -> Optional[_Block]:
        while self._blocks and not self._blocks[0].entries:
            self._blocks.pop(0)
        if not self._blocks:
            return None
        head = self._blocks[0]
        if head.in_memory:
            return head
        # head block resides on disk: load it asynchronously
        self._loading = True
        self._load_token += 1
        token = self._load_token
        load_bytes = head.size_bytes
        self.disk_loads += 1

        def loaded():
            if token != self._load_token:
                return
            self._loading = False
            if self._blocks and self._blocks[0] is head:
                head.in_memory = True
                self._on_alloc(head.size_bytes)
            self._notify()

        self.disk.read(load_bytes, loaded)
        return None

    # -- task stealing support (§6.2) ---------------------------------------------

    def steal_batch(
        self,
        limit: int,
        cost_threshold: float,
        local_rate_threshold: float,
        local_rate_fn: Callable[[Task], float],
    ) -> List[Task]:
        """Remove up to ``limit`` migratable tasks from the queue tail.

        A task migrates only when ``c(t) < Tc`` and ``lr(t) < Tr``
        (Eq. 2/3): cheap to ship and not strongly tied to the local
        partition.  Tail-first keeps the head (about to be pipelined)
        untouched.  On-disk victims are charged as a batched disk read.
        """
        stolen: List[Task] = []
        disk_bytes = 0
        # never touch the head block: it is about to enter the pipeline
        # (and may be mid-load from disk)
        for block in reversed(self._blocks[1:]):
            if len(stolen) >= limit:
                break
            kept: List[Tuple[_Key, Task]] = []
            for key, task in reversed(block.entries):
                if (
                    len(stolen) < limit
                    and task.migration_cost() < cost_threshold
                    and local_rate_fn(task) < local_rate_threshold
                ):
                    stolen.append(task)
                    self._size -= 1
                    if block.in_memory:
                        self._on_free(task.estimate_size())
                    else:
                        disk_bytes += task.estimate_size()
                else:
                    kept.append((key, task))
            kept.reverse()
            block.entries = kept
        if len(self._blocks) > 1:
            self._blocks = [self._blocks[0]] + [b for b in self._blocks[1:] if b.entries]
        if disk_bytes:
            self.disk.read(disk_bytes, lambda: None)
        return stolen

    def drain_all(self) -> List[Task]:
        """Remove everything (used for checkpoint inspection and failure)."""
        out: List[Task] = []
        for block in self._blocks:
            for _, task in block.entries:
                out.append(task)
                if block.in_memory:
                    self._on_free(task.estimate_size())
        self._blocks = []
        self._size = 0
        self._loading = False
        self._load_token += 1
        return out

    def peek_all(self) -> List[Task]:
        """Snapshot of queued tasks, head first (checkpointing)."""
        out: List[Task] = []
        for block in self._blocks:
            out.extend(task for _, task in block.entries)
        return out
