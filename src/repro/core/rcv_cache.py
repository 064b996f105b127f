"""The Reference-Counting Vertex (RCV) Cache (paper §4.3 and §7).

Caches remote vertices pulled over the network.  Each entry carries a
reference count: the number of READY/ACTIVE tasks currently referring
to it.  Eviction is *lazy*: a count reaching zero does not delete the
entry — a subsequent task (adjacent in the LSH-ordered queue) will
often re-reference it.  Only when the cache is full are zero-referenced
entries replaced, the one *inserted* earliest first (not the one whose
count reached zero first).  If the cache is full and nothing has a zero
count, the candidate retriever must sleep until some task completes a
round (handled by the caller).

The victim is never searched for: zero-referenced entries are indexed
beside the table (as in G-thinker) in a min-heap of ``(insertion seq,
vid)``.  ``insert`` and ``release`` push a record when a count is or
becomes zero; ``addref`` leaves it in place and eviction drops it when
it surfaces (lazy deletion).  A ``queued`` flag keeps each entry to one
record, so the heap never outgrows the table.

``lru`` and ``fifo`` policies are provided for the cache ablation: they
ignore reference counts when evicting (the head of the table, no
index), so an entry a ready task depends on can vanish and must be
re-pulled — the failure mode §7 motivates RCV against.
"""

from __future__ import annotations

import enum
import heapq
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.graph.graph import VertexData


class CachePolicy(enum.Enum):
    RCV = "rcv"
    LRU = "lru"
    FIFO = "fifo"


@dataclass(slots=True)
class _Entry:
    data: VertexData
    refs: int
    size: int
    seq: int  # insertion order (FIFO / zero-ref reclaim order)
    queued: bool = False  # a (seq, vid) record is in the zero-ref heap


class RCVCache:
    """Byte-bounded vertex cache with pluggable policy."""

    def __init__(
        self,
        capacity_bytes: int,
        policy: CachePolicy = CachePolicy.RCV,
        on_alloc: Optional[Callable[[int], None]] = None,
        on_free: Optional[Callable[[int], None]] = None,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity cannot be negative")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._zero_refs: List[Tuple[int, int]] = []  # heap of (seq, vid); RCV only
        self._used = 0
        self._seq = 0
        self._on_alloc = on_alloc
        self._on_free = on_free
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_inserts = 0

    # -- queries --------------------------------------------------------

    def __contains__(self, vid: int) -> bool:
        return vid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, vid: int) -> Optional[VertexData]:
        """Probe the cache, counting hit/miss and touching LRU order."""
        entry = self._entries.get(vid)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self.policy is CachePolicy.LRU:
            self._entries.move_to_end(vid)
        return entry.data

    def peek(self, vid: int) -> Optional[VertexData]:
        """Probe without statistics (used when gathering for execution)."""
        entry = self._entries.get(vid)
        return entry.data if entry else None

    def refs(self, vid: int) -> int:
        entry = self._entries.get(vid)
        return entry.refs if entry else 0

    def audit(self) -> List[Tuple[str, str]]:
        """Check the cache's own laws: ``(law, defect)`` pairs, none when sound.

        An O(n) walk for invariant checkers.  ``cache-zero-index``: every
        resident ``refs == 0`` entry is reachable as a victim (``queued``,
        with its one ``(seq, vid)`` record) and no record outlives its
        entry.  A lost record crashes nothing — the entry is never
        evicted and pulls silently take the overflow path.
        """
        entries = self._entries
        resident = sum(e.size for e in entries.values())
        found = []
        if self._used != resident:
            found.append(("cache-accounting", f"used_bytes {self._used} != resident {resident}"))
        if self._used > self.capacity_bytes:
            found.append(("cache-capacity", f"used_bytes {self._used} > {self.capacity_bytes}"))
        found += [
            ("cache-refs", f"entry {vid} has refcount {e.refs}")
            for vid, e in entries.items()
            if e.refs < 0
        ]
        flagged = {(e.seq, vid) for vid, e in entries.items() if e.queued}
        stray = flagged.symmetric_difference(self._zero_refs)
        if stray or len(self._zero_refs) != len(flagged):
            found.append((
                "cache-zero-index",
                f"records and queued entries differ: {sorted(stray) or 'duplicates'}",
            ))
        if self.policy is CachePolicy.RCV:
            found += [
                ("cache-zero-index", f"entry {vid} is unreferenced but not queued")
                for vid, e in entries.items()
                if e.refs == 0 and not e.queued
            ]
        return found

    # -- reference counting ------------------------------------------------

    def addref(self, vid: int) -> None:
        """A READY/ACTIVE task now refers to ``vid``."""
        entry = self._entries.get(vid)
        if entry is None:
            raise KeyError(f"addref on uncached vertex {vid}")
        entry.refs += 1

    def release(self, vid: int) -> None:
        """A referring task completed its round (lazy model: no delete)."""
        entry = self._entries.get(vid)
        if entry is None:
            return  # already evicted under lru/fifo ablation policies
        if entry.refs > 0:
            entry.refs -= 1
            if entry.refs == 0:
                self._queue(vid, entry)

    def _queue(self, vid: int, entry: _Entry) -> None:
        """Index a zero-referenced entry as an eviction candidate."""
        if not entry.queued and self.policy is CachePolicy.RCV:
            entry.queued = True
            heapq.heappush(self._zero_refs, (entry.seq, vid))

    # -- insertion & eviction -------------------------------------------------

    def insert(self, data: VertexData, refs: int = 1) -> bool:
        """Insert a pulled vertex with an initial reference count.

        Returns False when space cannot be reclaimed (every resident
        entry is referenced under the RCV policy) — the caller (the
        candidate retriever) should go to sleep and retry after some
        task finishes a round.
        """
        vid = data.vid
        entry = self._entries.get(vid)
        if entry is not None:
            entry.refs += refs
            return True
        size = data.estimate_size()
        if size > self.capacity_bytes:
            self.rejected_inserts += 1
            return False
        if not self._make_room(size):
            self.rejected_inserts += 1
            return False
        self._seq += 1
        entry = self._entries[vid] = _Entry(data, refs, size, self._seq)
        if refs == 0:
            self._queue(vid, entry)
        self._used += size
        if self._on_alloc is not None:
            self._on_alloc(size)
        return True

    def _make_room(self, needed: int) -> bool:
        while self._used + needed > self.capacity_bytes:
            victim = self._pick_victim()
            if victim is None:
                return False
            self._evict(victim)
        return True

    def _pick_victim(self) -> Optional[int]:
        if not self._entries:
            return None
        if self.policy is CachePolicy.RCV:
            # oldest-inserted zero-referenced entry; None if all are
            # referenced.  Records of entries re-referenced since they
            # were queued surface here and are dropped.
            heap = self._zero_refs
            while heap:
                vid = heapq.heappop(heap)[1]
                entry = self._entries[vid]
                entry.queued = False
                if entry.refs == 0:
                    return vid
            return None
        # LRU: head of the OrderedDict; FIFO: smallest seq = head too
        return next(iter(self._entries))

    def _evict(self, vid: int) -> None:
        entry = self._entries.pop(vid)
        self._used -= entry.size
        self.evictions += 1
        if self._on_free is not None:
            self._on_free(entry.size)

    def drop_all(self) -> None:
        """Clear the cache (worker failure).  Not counted as evictions."""
        entries = list(self._entries.values())
        self._entries.clear()
        self._zero_refs.clear()
        self._used = 0
        if self._on_free is not None:
            for entry in entries:
                self._on_free(entry.size)
        self.hits = self.misses = 0
