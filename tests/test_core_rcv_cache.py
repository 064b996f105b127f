"""Unit tests for the Reference-Counting Vertex Cache (paper §7)."""

from collections import OrderedDict
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rcv_cache import CachePolicy, RCVCache
from repro.graph.graph import VertexData


def vd(vid, degree=2):
    return VertexData(vid=vid, neighbors=tuple(range(1000, 1000 + degree)))


SIZE = vd(0).estimate_size()


class TestBasics:
    def test_insert_and_lookup(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        assert cache.insert(vd(1))
        assert cache.lookup(1).vid == 1
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        assert cache.lookup(9) is None
        assert cache.misses == 1
        assert cache.hit_rate() == 0.0

    def test_peek_does_not_count(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        cache.insert(vd(1))
        cache.peek(1)
        cache.peek(2)
        assert cache.hits == 0 and cache.misses == 0

    def test_reinsert_adds_refs(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        cache.insert(vd(1), refs=1)
        cache.insert(vd(1), refs=2)
        assert cache.refs(1) == 3
        assert len(cache) == 1

    def test_memory_hooks(self):
        allocs, frees = [], []
        cache = RCVCache(
            capacity_bytes=10 * SIZE,
            on_alloc=allocs.append,
            on_free=frees.append,
        )
        cache.insert(vd(1))
        assert allocs == [SIZE]
        cache.drop_all()
        assert frees == [SIZE]


class TestReferenceCounting:
    def test_addref_release(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        cache.insert(vd(1), refs=1)
        cache.addref(1)
        assert cache.refs(1) == 2
        cache.release(1)
        cache.release(1)
        assert cache.refs(1) == 0

    def test_release_never_negative(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        cache.insert(vd(1), refs=0)
        cache.release(1)
        assert cache.refs(1) == 0

    def test_addref_on_missing_raises(self):
        cache = RCVCache(capacity_bytes=10 * SIZE)
        with pytest.raises(KeyError):
            cache.addref(5)

    def test_release_on_missing_is_noop(self):
        RCVCache(capacity_bytes=10 * SIZE).release(5)


class TestRCVEviction:
    def test_referenced_entries_never_evicted(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=1)
        cache.insert(vd(2), refs=1)
        # full of referenced entries: the new insert must be refused
        assert not cache.insert(vd(3), refs=1)
        assert cache.rejected_inserts == 1
        assert 1 in cache and 2 in cache

    def test_lazy_model_keeps_zero_ref_until_needed(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=0)
        assert 1 in cache  # zero-ref is NOT deleted eagerly
        cache.insert(vd(2), refs=1)
        assert 1 in cache
        cache.insert(vd(3), refs=1)  # now space is needed
        assert 1 not in cache
        assert cache.evictions == 1

    def test_oldest_zero_ref_evicted_first(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=0)
        cache.insert(vd(2), refs=0)
        cache.insert(vd(3), refs=0)
        assert 1 not in cache
        assert 2 in cache and 3 in cache

    def test_release_then_evictable(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=1)
        cache.insert(vd(2), refs=1)
        assert not cache.insert(vd(3), refs=1)
        cache.release(1)
        assert cache.insert(vd(3), refs=1)
        assert 1 not in cache

    def test_oversized_item_rejected(self):
        cache = RCVCache(capacity_bytes=SIZE // 2)
        assert not cache.insert(vd(1))


class TestAblationPolicies:
    def test_lru_evicts_least_recent_even_if_referenced(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.LRU)
        cache.insert(vd(1), refs=5)
        cache.insert(vd(2), refs=0)
        cache.lookup(1)  # touch 1 so 2 is least recent
        cache.insert(vd(3), refs=0)
        assert 2 not in cache
        assert 1 in cache

    def test_fifo_evicts_insertion_order(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.FIFO)
        cache.insert(vd(1), refs=5)
        cache.insert(vd(2), refs=0)
        cache.lookup(1)  # FIFO ignores recency
        cache.insert(vd(3), refs=0)
        assert 1 not in cache  # first in, first out — despite its refs

    def test_policy_string_roundtrip(self):
        assert CachePolicy("rcv") is CachePolicy.RCV
        assert CachePolicy("lru") is CachePolicy.LRU
        assert CachePolicy("fifo") is CachePolicy.FIFO


class TestEvictionRacingMigration:
    """The eviction/migration race: a task migrating out releases its
    cached vertices, pressure evicts them, and the task (or a twin)
    arrives back expecting them.  The cache's contract is that the
    returning side must probe (``lookup``) before pinning (``addref``)
    — these tests pin each leg of that protocol."""

    def test_released_vertex_evicted_while_task_in_transit(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=1)  # pinned by the departing task
        cache.release(1)  # migrate-out: pins dropped, data retained
        assert 1 in cache
        # memory pressure while the task is on the wire
        cache.insert(vd(2), refs=1)
        cache.insert(vd(3), refs=1)
        assert 1 not in cache
        assert cache.evictions == 1

    def test_addref_after_eviction_is_an_error_not_a_resurrection(self):
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=1)
        cache.release(1)
        cache.insert(vd(2), refs=1)
        cache.insert(vd(3), refs=1)  # evicts 1
        with pytest.raises(KeyError):
            cache.addref(1)  # blind re-pin must fail loudly

    def test_migrate_in_probes_then_reinserts(self):
        cache = RCVCache(capacity_bytes=3 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=1)
        cache.release(1)
        cache.insert(vd(2), refs=1)
        cache.insert(vd(3), refs=1)
        cache.insert(vd(4), refs=0)  # evicts the released 1
        assert 1 not in cache
        # the migrated-in task probes, misses, re-pulls and re-inserts
        # (evicting the idle 4 to make room)
        assert cache.lookup(1) is None
        assert cache.misses == 1
        assert cache.insert(vd(1), refs=2)
        assert cache.refs(1) == 2

    def test_pinned_vertex_survives_the_transit_window(self):
        # a second local task still references the vertex: the migration
        # of the first must not expose it to eviction
        cache = RCVCache(capacity_bytes=2 * SIZE, policy=CachePolicy.RCV)
        cache.insert(vd(1), refs=2)  # two tasks share it
        cache.release(1)  # one migrates out
        assert not cache.insert(vd(2), refs=1) or 1 in cache
        cache.insert(vd(3), refs=0)
        assert 1 in cache  # still pinned by the stayer
        assert cache.refs(1) == 1

    def test_race_is_exercised_end_to_end(self):
        """A real job under cache pressure with stealing on: evictions
        and migrations both happen, and the result is still exact."""
        from repro.apps import TriangleCountingApp
        from repro.graph.algorithms import triangle_count_exact
        from repro.sim.cluster import ClusterSpec
        from tests.conftest import make_clustered_graph, run_job

        graph = make_clustered_graph()
        # single-core nodes with tiny caches and tiny store blocks:
        # skewed BDG partitions leave some workers idle while others
        # still hold stealable (non-head-block) tasks
        spec = ClusterSpec(num_nodes=4, cores_per_node=1)
        job, result = run_job(
            TriangleCountingApp(), graph, spec,
            partitioner="bdg", cache_capacity_bytes=2048,
            store_block_tasks=2, steal_batch=4,
            steal_local_rate_threshold=2.0, steal_cost_threshold=1e9,
            steal_retry_interval=0.002,
        )
        assert result.value == triangle_count_exact(graph)
        assert sum(c.evictions for w in job.workers for c in w.caches) > 0
        assert sum(w.stats.tasks_migrated_in for w in job.workers) > 0


# ----------------------------------------------------------------------
# the zero-reference index against the frozen linear scan
# ----------------------------------------------------------------------


class RecordingCache(RCVCache):
    """Records the eviction sequence (both sides of the comparison)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evicted = []

    def _evict(self, vid):
        self.evicted.append(vid)
        super()._evict(vid)


class ScanReferenceCache(RecordingCache):
    """The pre-index ``_pick_victim``, frozen: a linear scan of every
    entry for the zero-referenced one with the smallest insertion seq.
    This is the specification the index has to reproduce."""

    def _pick_victim(self) -> Optional[int]:
        if not self._entries:
            return None
        if self.policy is CachePolicy.RCV:
            best: Optional[Tuple[int, int]] = None
            for vid, entry in self._entries.items():
                if entry.refs == 0 and (best is None or entry.seq < best[0]):
                    best = (entry.seq, vid)
            return best[1] if best else None
        return next(iter(self._entries))


def _apply(cache, op, vid, arg):
    """One operation; the return value (or the error) is compared."""
    if op == "insert":
        return cache.insert(vd(vid, degree=vid % 3), refs=arg)
    if op == "addref":
        try:
            return cache.addref(vid)
        except KeyError:
            return "KeyError"
    if op == "release":
        return cache.release(vid)
    if op == "lookup":
        data = cache.lookup(vid)
        return None if data is None else data.vid
    return cache.drop_all()


def _observable(cache):
    return (
        cache.evicted,
        cache.used_bytes,
        cache.hits,
        cache.misses,
        cache.rejected_inserts,
        cache.evictions,
        [(vid, cache.refs(vid)) for vid in range(10) if vid in cache],
    )


# Tuned against a planted mutant that orders victims by *release* time:
# more releases than inserts and initial counts of 0 or 1 (so counts do
# reach zero), more vertex ids than slots (so inserts evict), drop_all
# rare (it resets the state the interesting sequences need).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert"] * 6 + ["release"] * 9 + ["addref", "lookup", "drop_all"]
        ),
        st.integers(0, 9),
        st.integers(0, 1),
    ),
    max_size=120,
)


class TestZeroRefIndexMatchesScan:
    @settings(max_examples=150, deadline=None)
    @given(_OPS, st.sampled_from(list(CachePolicy)), st.integers(2, 4))
    def test_same_victims_and_counters_as_the_frozen_scan(self, ops, policy, slots):
        capacity = slots * vd(0, degree=2).estimate_size()
        indexed = RecordingCache(capacity, policy=policy)
        scanned = ScanReferenceCache(capacity, policy=policy)
        for step, (op, vid, arg) in enumerate(ops):
            got, want = _apply(indexed, op, vid, arg), _apply(scanned, op, vid, arg)
            assert got == want, (step, op, vid, arg)
            assert _observable(indexed) == _observable(scanned), (step, op, vid, arg)
            assert indexed.audit() == [], (step, op, vid, arg)

    def test_victim_is_oldest_inserted_not_first_released(self):
        """Why an append-on-release list is wrong: 2 reaches zero first,
        but 1 was inserted first and is the victim."""
        cache = RecordingCache(3 * SIZE)
        for vid in (1, 2, 3):
            cache.insert(vd(vid), refs=1)
        cache.release(2)
        cache.release(1)
        cache.insert(vd(4), refs=1)
        cache.insert(vd(5), refs=1)
        assert cache.evicted == [1, 2]

    def test_rereferenced_entry_is_skipped_then_evictable_again(self):
        cache = RecordingCache(2 * SIZE)
        cache.insert(vd(1), refs=0)
        cache.insert(vd(2), refs=0)
        cache.addref(1)  # its index record goes stale
        cache.insert(vd(3), refs=0)
        assert cache.evicted == [2]
        cache.release(1)  # queued again after the stale record was dropped
        assert cache.audit() == []
        cache.insert(vd(4), refs=1)
        assert cache.evicted == [2, 1]


class CountingTable(OrderedDict):
    """Counts every walk of the table (``iter``/``items``/``values``/``keys``)."""

    walks = 0

    def _walked(self):
        type(self).walks += 1

    def __iter__(self):
        self._walked()
        return super().__iter__()

    def items(self):
        self._walked()
        return super().items()

    def values(self):
        self._walked()
        return super().values()

    def keys(self):
        self._walked()
        return super().keys()


class TestEvictionNeverWalksTheTable:
    def _full_cache(self, cls):
        cache = cls(capacity_bytes=4000 * SIZE)
        cache._entries = CountingTable()
        for vid in range(4000):
            # every tenth entry is evictable, the rest are pinned
            cache.insert(vd(vid), refs=0 if vid % 10 == 0 else 1)
        CountingTable.walks = 0
        return cache

    def test_insert_under_eviction_iterates_none_of_the_table(self):
        cache = self._full_cache(RCVCache)
        for vid in range(10_000, 10_200):
            assert cache.insert(vd(vid), refs=1)
        assert cache.evictions == 200
        assert CountingTable.walks == 0

    def test_the_guard_sees_the_frozen_scan(self):
        cache = self._full_cache(ScanReferenceCache)
        assert cache.insert(vd(10_000), refs=1)
        assert CountingTable.walks == 1


class TestDropAllAndAudit:
    def test_drop_all_clears_the_index_and_counts_no_evictions(self):
        frees = []
        cache = RCVCache(capacity_bytes=3 * SIZE, on_free=frees.append)
        cache.insert(vd(1), refs=0)
        cache.insert(vd(2), refs=1)
        cache.lookup(1)
        cache.drop_all()
        assert len(cache) == 0 and cache.used_bytes == 0
        assert frees == [SIZE, SIZE]
        assert cache.evictions == 0  # a crash is not cache pressure
        assert cache.hits == 0 and cache.misses == 0
        assert cache.audit() == []
        # the old records are gone: refilling evicts only new entries
        for vid in (1, 3, 4, 5):
            assert cache.insert(vd(vid), refs=0)
        assert 1 not in cache and cache.evictions == 1
        assert cache.audit() == []

    def test_audit_reports_an_unreferenced_entry_missing_from_the_index(self):
        cache = RCVCache(capacity_bytes=3 * SIZE)
        cache.insert(vd(1), refs=1)
        cache.release(1)
        cache._zero_refs.clear()  # lose the record, keep the flag
        assert {law for law, _ in cache.audit()} == {"cache-zero-index"}
        cache._entries[1].queued = False  # lose the flag as well
        assert [law for law, _ in cache.audit()] == ["cache-zero-index"]

    def test_audit_reports_a_record_that_outlived_its_entry(self):
        cache = RCVCache(capacity_bytes=3 * SIZE)
        cache.insert(vd(1), refs=0)
        cache._evict(1)  # bypasses _pick_victim: the record stays behind
        assert [law for law, _ in cache.audit()] == ["cache-zero-index"]

    def test_audit_reports_a_duplicated_record(self):
        cache = RCVCache(capacity_bytes=3 * SIZE)
        cache.insert(vd(1), refs=0)
        cache._zero_refs.append(cache._zero_refs[0])
        assert cache.audit() == [
            ("cache-zero-index", "records and queued entries differ: duplicates")
        ]

    def test_audit_reports_accounting_capacity_and_refcount(self):
        cache = RCVCache(capacity_bytes=3 * SIZE)
        cache.insert(vd(1), refs=1)
        cache._used += 1
        cache._entries[1].refs = -1
        assert [law for law, _ in cache.audit()] == ["cache-accounting", "cache-refs"]
        cache._used = 4 * SIZE
        assert "cache-capacity" in {law for law, _ in cache.audit()}

    def test_ablation_policies_keep_no_index(self):
        for policy in (CachePolicy.LRU, CachePolicy.FIFO):
            cache = RCVCache(capacity_bytes=2 * SIZE, policy=policy)
            for vid in range(6):
                cache.insert(vd(vid), refs=0)
                cache.release(vid)
            assert cache._zero_refs == [] and cache.audit() == []
