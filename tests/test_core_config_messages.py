"""Unit tests for configuration validation and the message vocabulary."""

import dataclasses
import pathlib
import re

import pytest

import repro
from repro.core.config import GMinerConfig
from repro.core.messages import (
    AggBroadcast,
    AggReport,
    CheckpointCommand,
    MigrateCommand,
    NoTask,
    ProgressReport,
    PullRequest,
    PullResponse,
    StealRequest,
    TaskMigration,
    WorkerDown,
    WorkerUp,
)
from repro.core.task import Task
from repro.graph.graph import VertexData


class TestConfig:
    def test_defaults_validate(self):
        GMinerConfig().validate()

    def test_replace_returns_new_config(self):
        base = GMinerConfig()
        other = base.replace(enable_lsh=False)
        assert base.enable_lsh and not other.enable_lsh

    @pytest.mark.parametrize(
        "field,value",
        [
            ("partitioner", "random"),
            ("cache_policy", "mru"),
            ("store_block_tasks", 0),
            ("max_inflight_tasks", 0),
            ("steal_batch", 0),
            ("cache_capacity_bytes", -1),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            GMinerConfig().replace(**{field: value}).validate()

    def test_every_config_field_is_read(self):
        """The knob audit: a field nothing reads is dead weight on every
        config, and a new one must come with the code that consumes it."""
        names = [f.name for f in dataclasses.fields(GMinerConfig)]
        assert len(names) == 34
        root = pathlib.Path(repro.__file__).parent
        config_py = root / "core" / "config.py"
        sources = [
            path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.py"))
            if path != config_py
        ]
        # inside config.py only what precedes validate() counts (that is
        # sketch_params()): a range check alone is not a use
        config_text = config_py.read_text(encoding="utf-8")
        sources.append(config_text.split("    def validate(")[0])
        unread = [
            name for name in names
            if not any(re.search(rf"\.{name}\b(?!\s*=[^=])", text) for text in sources)
        ]
        assert unread == []


class _T(Task):
    def __init__(self):
        super().__init__(VertexData(vid=0, neighbors=(1, 2)))
        self.pull([1, 2])

    def update(self, cand_objs, env):
        self.finish()


class TestMessageSizes:
    def test_pull_request_scales_with_vids(self):
        small = PullRequest(requester=0, vids=(1,))
        big = PullRequest(requester=0, vids=tuple(range(100)))
        assert big.size_bytes() - small.size_bytes() == 99 * 8

    def test_pull_response_scales_with_vertex_sizes(self):
        v1 = VertexData(vid=1, neighbors=(2,))
        v2 = VertexData(vid=2, neighbors=tuple(range(50)))
        small = PullResponse(vertices=(v1,))
        big = PullResponse(vertices=(v1, v2))
        assert big.size_bytes() > small.size_bytes()

    def test_task_migration_scales_with_tasks(self):
        empty = TaskMigration(source=0, tasks=[])
        loaded = TaskMigration(source=0, tasks=[_T(), _T()])
        assert loaded.size_bytes() > empty.size_bytes()

    @pytest.mark.parametrize(
        "message",
        [
            AggReport(worker=0, partial=5),
            AggBroadcast(value=5),
            ProgressReport(0, 1, 2, 3, 4, 5, False),
            StealRequest(worker=0),
            MigrateCommand(dest=1, count=8),
            NoTask(source=0),
            CheckpointCommand(epoch=1),
            WorkerDown(worker=2, view=1),
            WorkerUp(worker=2, view=2),
        ],
    )
    def test_control_messages_are_small(self, message):
        assert 0 < message.size_bytes() <= 64
