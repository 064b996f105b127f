"""Unit tests for the task model (paper §4.2)."""

import copy
import enum

import pytest

from repro.core import GMinerConfig
from repro.core.task import _BASE_FIELDS, Task, TaskEnv, TaskStatus
from repro.graph.generators import random_attributes
from repro.graph.graph import VertexData
from repro.plans.api import prepare_job
from tests.conftest import make_clustered_graph


class RecordingTask(Task):
    """Pulls whatever the test tells it to; finishes on request."""

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)
        self.seen = []
        first = self.script.pop(0)
        if first is not None:
            self.pull(first)

    def update(self, cand_objs, env):
        self.seen.append((dict(cand_objs), env.aggregated))
        self.charge(5)
        step = self.script.pop(0)
        if step is None:
            self.finish(result=len(self.seen))
        else:
            self.pull(step)


def make_seed(vid=0, neighbors=(1, 2)):
    return VertexData(vid=vid, neighbors=tuple(neighbors))


class TestLifecycle:
    def test_initial_state(self):
        t = RecordingTask(make_seed(), [[1, 2], None])
        assert t.status is TaskStatus.ACTIVE
        assert t.round == 0
        assert not t.finished
        assert t.subgraph.has_node(0)
        assert t.candidates == [1, 2]
        assert t.to_pull == {1, 2}

    def test_run_round_increments_and_charges(self):
        t = RecordingTask(make_seed(), [[1], None])
        env = TaskEnv(worker_id=0)
        work = t.run_round({1: make_seed(1)}, env)
        assert t.round == 1
        assert work == 5
        assert t.finished
        assert t.result == 1

    def test_pull_deduplicates_and_sorts(self):
        t = RecordingTask(make_seed(), [[3, 1, 3, 2]])
        assert t.candidates == [1, 2, 3]

    def test_finish_clears_candidates(self):
        t = RecordingTask(make_seed(), [[1], None])
        t.run_round({}, TaskEnv(0))
        assert t.candidates == []
        assert t.to_pull == set()

    def test_unique_task_ids(self):
        a = RecordingTask(make_seed(), [[1]])
        b = RecordingTask(make_seed(), [[1]])
        assert a.task_id != b.task_id


class TestEnv:
    def test_aggregated_visible(self):
        t = RecordingTask(make_seed(), [[1], None])
        t.run_round({}, TaskEnv(0, aggregated=42))
        assert t.seen[0][1] == 42

    def test_push_to_aggregator(self):
        pushed = []
        env = TaskEnv(0, push=pushed.append)
        env.push_to_aggregator(7)
        assert pushed == [7]

    def test_push_without_sink_is_noop(self):
        TaskEnv(0).push_to_aggregator(7)  # must not raise


class TestCostModel:
    def test_migration_cost_eq2(self):
        t = RecordingTask(make_seed(), [[1, 2, 3]])
        t.subgraph.add_nodes([10, 11])
        # c(t) = |subG| + |candVtxs| = 3 + 3
        assert t.migration_cost() == 6

    def test_local_rate_eq3(self):
        t = RecordingTask(make_seed(), [[1, 2, 3, 4]])
        assert t.local_rate(num_to_pull=1) == pytest.approx(0.75)
        assert t.local_rate(num_to_pull=4) == 0.0

    def test_local_rate_no_candidates(self):
        t = RecordingTask(make_seed(), [[1], None])
        t.run_round({}, TaskEnv(0))
        assert t.local_rate(0) == 1.0

    def test_estimate_size_includes_context(self):
        class FatContext(RecordingTask):
            def context_size(self):
                return 10_000

        lean = RecordingTask(make_seed(), [[1]])
        fat = FatContext(make_seed(), [[1]])
        assert fat.estimate_size() > lean.estimate_size() + 9_000


class TestDefaults:
    def test_base_update_abstract(self):
        t = Task(make_seed())
        with pytest.raises(NotImplementedError):
            t.update({}, TaskEnv(0))

    def test_spawn_default_empty(self):
        assert Task(make_seed()).spawn() == []

    def test_split_default_none(self):
        assert Task(make_seed()).split() is None

    def test_repr_mentions_seed_and_round(self):
        t = RecordingTask(make_seed(vid=9), [[1]])
        assert "seed=9" in repr(t)


# ----------------------------------------------------------------------
# Task.clone(): the hand-written copy against copy.deepcopy
# ----------------------------------------------------------------------

_ATOMS = (int, float, str, bytes, bool, type(None), enum.Enum, type, type(len), type(make_seed))


def _frozen(obj):
    params = getattr(obj, "__dataclass_params__", None)
    return params is not None and params.frozen


def _members(obj):
    """The attributes of a plain object (``__dict__`` and ``__slots__``)."""
    names = list(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names += [n for n in getattr(klass, "__slots__", ()) if hasattr(obj, n)]
    return {name: getattr(obj, name) for name in names}


def canon(obj):
    """A comparable rendering of an object's full state."""
    if isinstance(obj, _ATOMS):
        return obj
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [canon(x) for x in obj])
    if isinstance(obj, (set, frozenset)):
        return (type(obj).__name__, sorted(canon(x) for x in obj))
    if isinstance(obj, dict):
        return ("dict", [(canon(k), canon(v)) for k, v in obj.items()])
    if hasattr(obj, "tolist"):  # numpy array handle
        return ("array", obj.tolist())
    return (type(obj).__name__, canon(_members(obj)))


def mutable_ids(obj, seen=None):
    """ids of every mutable object reachable from ``obj``; tuples and
    frozen dataclasses (vertex records, patterns, plans, params) are
    immutable values that copies may share."""
    seen = {} if seen is None else seen
    if isinstance(obj, _ATOMS) or _frozen(obj) or id(obj) in seen:
        return seen
    if isinstance(obj, (tuple, frozenset)):
        for x in obj:
            mutable_ids(x, seen)
        return seen
    seen[id(obj)] = obj
    if isinstance(obj, dict):
        children = list(obj) + list(obj.values())
    elif isinstance(obj, (list, set)):
        children = list(obj)
    elif hasattr(obj, "tolist"):
        children = []
    else:
        children = list(_members(obj).values())
    for child in children:
        mutable_ids(child, seen)
    return seen


def _check_clone(task):
    clone, deep = task.clone(), copy.deepcopy(task)
    assert type(clone) is type(task)
    assert canon(clone) == canon(deep) == canon(task)
    ours, theirs = mutable_ids(task), mutable_ids(clone)
    shared = ours.keys() & theirs.keys()
    assert not shared, [type(ours[i]).__name__ for i in shared]
    assert clone._held_refs == task._held_refs
    assert clone._accounted_size == task._accounted_size > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workload": "tc"},
        {"workload": "mcf"},
        {"workload": "gm"},
        {"workload": "gl", "k": 3},
        {"workload": "cd"},
        {"workload": "gc"},
        {"pattern": "tailed-triangle"},
    ],
    ids=lambda kw: kw.get("workload") or kw["pattern"],
)
def test_clone_equals_deepcopy_and_shares_nothing_mutable(kwargs):
    """Every live task of a job stopped part-way, every few simulated
    milliseconds: stored, pulling and ready tasks, with pinned
    references and partial multi-round state."""
    workload = kwargs.get("workload")
    graph = make_clustered_graph(n=60, m=4, seed=11, labeled=(workload == "gm"))
    if workload in ("cd", "gc"):
        random_attributes(graph, seed=5)
    job = prepare_job(graph, config=GMinerConfig(cache_capacity_bytes=4096), **kwargs)
    job.begin()
    checked = pinned = grown = 0
    until = 0.0
    while not job.done:
        until += 0.0005
        job.advance(until=until)
        for worker in job.workers:
            for task in worker.live_tasks.values():
                _check_clone(task)
                checked += 1
                pinned += bool(task._held_refs)
                grown += task.round > 0
    job.complete()
    assert checked > 20 and pinned > 0 and grown > 0


def test_clone_is_independent_of_the_original():
    t = RecordingTask(make_seed(), [[1, 2], [3], None])
    t._held_refs.add(1)
    c = t.clone()
    t.run_round({}, TaskEnv(0))
    t.subgraph.add_node(99)
    t._held_refs.add(2)
    assert c.round == 0 and c.candidates == [1, 2] and c.to_pull == {1, 2}
    assert not c.subgraph.has_node(99) and c._held_refs == {1}
    assert c.script == [[3], None]  # undeclared subclass state is deep-copied
    assert c.task_id == t.task_id and c.seed is t.seed


def test_base_fields_are_exactly_what_init_declares():
    assert _BASE_FIELDS == set(vars(Task(make_seed())))
