"""Unit tests for the disk-backed LSH task store (paper §4.3/§7)."""

import pytest

from repro.core.lsh import MinHashLSH
from repro.core.task import Task, TaskStatus
from repro.core.task_store import TaskStore
from repro.graph.graph import VertexData
from repro.sim.disk import Disk
from repro.sim.engine import Simulator


class StubTask(Task):
    def __init__(self, to_pull, size=100):
        super().__init__(VertexData(vid=0, neighbors=()))
        self.pull(to_pull)
        self._size = size

    def update(self, cand_objs, env):
        self.finish()

    def estimate_size(self):
        return self._size


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def disk(sim):
    return Disk(sim, 0, read_bandwidth=1e9, write_bandwidth=1e9, latency=1e-4)


def make_store(disk, block_tasks=4, lsh=True, **kwargs):
    return TaskStore(
        disk=disk,
        block_tasks=block_tasks,
        lsh=MinHashLSH(4) if lsh else None,
        **kwargs,
    )


class TestBasicQueue:
    def test_insert_pop(self, sim, disk):
        store = make_store(disk)
        t = StubTask([1, 2])
        store.insert_batch([t])
        assert len(store) == 1
        assert t.status is TaskStatus.INACTIVE
        popped = store.pop()
        assert popped is t
        assert len(store) == 0

    def test_pop_empty_returns_none(self, disk):
        assert make_store(disk).pop() is None

    def test_notify_on_insert(self, disk):
        notified = []
        store = make_store(disk, notify=lambda: notified.append(1))
        store.insert_batch([StubTask([1])])
        assert notified

    def test_memory_hooks_for_head_block(self, disk):
        allocs, frees = [], []
        store = TaskStore(
            disk=disk,
            block_tasks=4,
            lsh=None,
            on_alloc=allocs.append,
            on_free=frees.append,
        )
        t = StubTask([1], size=64)
        store.insert_batch([t])
        assert sum(allocs) == 64
        store.pop()
        assert sum(frees) == 64


class TestLSHOrdering:
    def test_similar_pull_sets_adjacent(self, disk):
        """Tasks sharing remote candidates dequeue near each other —
        the cache-locality property of Figure 3."""
        store = make_store(disk, block_tasks=64)
        group_a = [StubTask([1, 2, 3]) for _ in range(3)]
        group_b = [StubTask([100, 200, 300]) for _ in range(3)]
        interleaved = [x for pair in zip(group_a, group_b) for x in pair]
        store.insert_batch(interleaved)
        order = [store.pop().to_pull for _ in range(6)]
        # identical sets must be consecutive
        as_keys = ["a" if s == {1, 2, 3} else "b" for s in order]
        assert as_keys in (["a"] * 3 + ["b"] * 3, ["b"] * 3 + ["a"] * 3)

    def test_without_lsh_order_is_scrambled_but_complete(self, disk):
        store = make_store(disk, lsh=False, block_tasks=64)
        tasks = [StubTask([i]) for i in range(8)]
        store.insert_batch(tasks)
        popped = set()
        while (t := store.pop()) is not None:
            popped.add(t.task_id)
        assert popped == {t.task_id for t in tasks}


class TestDiskBlocks:
    def test_overflow_spills_to_disk(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(8)])
        assert store.disk_spills >= 1
        assert disk.bytes_written.total > 0

    def test_pop_across_block_boundary_loads_from_disk(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        tasks = [StubTask([i]) for i in range(6)]
        store.insert_batch(tasks)
        popped = []

        def drain():
            while (t := store.pop()) is not None:
                popped.append(t)
            if len(popped) < 6:
                # a block load is in flight; retry when it lands
                assert store.loading or sim.pending()

        store._notify = drain
        drain()
        sim.run()
        assert len(popped) == 6
        assert store.disk_loads >= 1

    def test_byte_bound_splits_fat_blocks(self, sim, disk):
        store = TaskStore(disk, block_tasks=100, lsh=None, block_bytes=250)
        store.insert_batch([StubTask([i], size=100) for i in range(6)])
        # head block must stay under ~250 bytes => blocks of <= 3 tasks
        assert len(store._blocks) >= 2


class TestStealing:
    def _local_rate(self, task):
        return 0.0  # everything is remote: freely migratable

    def test_steal_respects_cost_threshold(self, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        cheap = [StubTask([1]) for _ in range(4)]
        fat = StubTask(list(range(600)))  # c(t) = 1 + 600 > 512
        store.insert_batch(cheap + [fat])
        stolen = store.steal_batch(10, 512.0, 0.9, self._local_rate)
        assert fat not in stolen

    def test_steal_respects_local_rate(self, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([1]) for _ in range(6)])
        stolen = store.steal_batch(10, 512.0, 0.9, lambda t: 1.0)
        assert stolen == []  # everything too local to migrate

    def test_steal_leaves_head_block(self, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(6)])
        before = len(store)
        stolen = store.steal_batch(100, 1e9, 2.0, self._local_rate)
        # head block (up to 2 tasks) is never stolen
        assert len(stolen) <= before - 1
        assert len(store) + len(stolen) == before

    def test_steal_limit(self, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(10)])
        stolen = store.steal_batch(3, 1e9, 2.0, self._local_rate)
        assert len(stolen) == 3


class TestSpillReloadRoundTrip:
    """Spilling a block to disk and loading it back must be lossless:
    same tasks, same pull sets, same sizes, nothing reordered within a
    block, nothing duplicated."""

    def _drain(self, sim, store, expect):
        popped = []

        def pump():
            while (t := store.pop()) is not None:
                popped.append(t)
            if len(popped) < expect:
                assert store.loading or sim.pending()

        store._notify = pump
        pump()
        sim.run()
        return popped

    def test_round_trip_preserves_task_identity_and_state(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        tasks = [StubTask([i, i + 100], size=50 + i) for i in range(8)]
        store.insert_batch(tasks)
        assert store.disk_spills >= 1
        popped = self._drain(sim, store, len(tasks))
        assert len(popped) == len(tasks)
        by_id = {t.task_id: t for t in tasks}
        for task in popped:
            original = by_id.pop(task.task_id)
            assert task is original  # the very same object comes back
            assert task.to_pull == original.to_pull
            assert task.estimate_size() == original.estimate_size()
        assert not by_id  # nothing lost, nothing duplicated

    def test_reload_actually_reads_the_disk(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(8)])
        written = disk.bytes_written.total
        assert written > 0
        self._drain(sim, store, 8)
        assert store.disk_loads >= 1
        assert disk.bytes_read.total > 0

    def test_drain_all_recovers_spilled_tasks(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        tasks = [StubTask([i]) for i in range(8)]
        store.insert_batch(tasks)
        assert store.disk_spills >= 1
        drained = store.drain_all()
        assert {t.task_id for t in drained} == {t.task_id for t in tasks}
        assert len(store) == 0

    def test_drain_all_mid_load_leaves_the_store_usable(self, sim, disk):
        # a failure drains the store while a block load is in flight;
        # that load never counts again, and the refilled store pops
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(6)])
        while store.pop() is not None:
            pass
        assert store.loading
        store.drain_all()
        assert not store.loading
        fresh = [StubTask([i]) for i in range(6)]
        store.insert_batch(fresh)
        popped = self._drain(sim, store, 6)
        assert {t.task_id for t in popped} == {t.task_id for t in fresh}

    def test_peek_all_sees_spilled_tasks(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        tasks = [StubTask([i]) for i in range(8)]
        store.insert_batch(tasks)
        assert {t.task_id for t in store.peek_all()} == {
            t.task_id for t in tasks
        }
        assert len(store) == 8  # non-destructive even for disk blocks

    def test_steal_reaches_spilled_blocks(self, sim, disk):
        store = make_store(disk, block_tasks=2, lsh=False)
        store.insert_batch([StubTask([i]) for i in range(10)])
        assert store.disk_spills >= 1
        stolen = store.steal_batch(100, 1e9, 2.0, lambda t: 0.0)
        # everything but the protected head block is up for migration,
        # including tasks currently resident on disk
        assert len(stolen) >= 6
        assert len(store) + len(stolen) == 10


class TestSnapshotting:
    def test_peek_all_preserves_contents(self, disk):
        store = make_store(disk)
        tasks = [StubTask([i]) for i in range(5)]
        store.insert_batch(tasks)
        assert {t.task_id for t in store.peek_all()} == {t.task_id for t in tasks}
        assert len(store) == 5  # non-destructive

    def test_drain_all_empties(self, disk):
        store = make_store(disk)
        store.insert_batch([StubTask([i]) for i in range(5)])
        drained = store.drain_all()
        assert len(drained) == 5
        assert len(store) == 0
