"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_fifo(sim):
    fired = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: fired.append(n))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time(sim):
    times = []
    sim.schedule(1.5, lambda: times.append(sim.now))
    sim.schedule(4.25, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.5, 4.25]
    assert sim.now == 4.25


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.schedule(5.0, lambda: fired.append("late"))
    end = sim.run(until=2.0)
    assert fired == ["early"]
    assert end == 2.0
    # remaining event still fires on a subsequent run
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_with_empty_heap_keeps_last_event_time(sim):
    sim.schedule(1.0, lambda: None)
    end = sim.run(until=100.0)
    assert end == 1.0  # completion time, not the limit


def test_nested_scheduling_from_callback(sim):
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.schedule(0.5, lambda: fired.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_zero_delay_event_fires_at_current_time(sim):
    fired = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [1.0]


def test_stop_halts_processing(sim):
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_max_events_limit(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_peek_skips_cancelled(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.peek() == 2.0


def test_pending_counts_live_events(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    e1.cancel()
    assert sim.pending() == 1


def test_events_processed_counter(sim):
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 5


# ----------------------------------------------------------------------
# heap ordering: (time, seq, event) tuples, the event is never compared
# ----------------------------------------------------------------------


def test_same_instant_fifo_across_schedule_and_schedule_at(sim):
    fired = []
    sim.schedule_at(1.0, lambda: fired.append("at-1"))
    sim.schedule(1.0, lambda: fired.append("delay-2"))
    sim.schedule(0.5, lambda: fired.append("early"))
    sim.schedule_at(1.0, lambda: fired.append("at-3"))
    sim.run()
    assert fired == ["early", "at-1", "delay-2", "at-3"]


def test_event_scheduled_for_now_runs_after_those_already_queued(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, lambda: fired.append("nested"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, lambda: fired.append("second"))
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_many_same_instant_events_keep_schedule_order(sim):
    fired = []
    for i in range(500):
        sim.schedule(1.0 if i % 3 else 2.0, lambda i=i: fired.append(i))
    sim.run()
    early = [i for i in range(500) if i % 3]
    late = [i for i in range(500) if not i % 3]
    assert fired == early + late


class _Unorderable:
    """A callback that refuses every comparison."""

    def __init__(self, log, name):
        self.log, self.name = log, name

    def __call__(self):
        self.log.append(self.name)

    def _refuse(self, other):
        raise AssertionError("a callback was compared")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = _refuse
    __hash__ = object.__hash__


def test_unorderable_callbacks_are_never_compared(sim):
    fired = []
    for name in "abcdef":
        sim.schedule(1.0, _Unorderable(fired, name))
    sim.run()
    assert fired == list("abcdef")


def test_events_themselves_are_never_compared(sim, monkeypatch):
    from repro.sim.engine import Event

    def refuse(self, other):
        raise AssertionError("an Event was compared")

    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Event, op, refuse, raising=False)
    fired = []
    for i in range(50):
        sim.schedule(float(i % 5), lambda i=i: fired.append(i))
    sim.run()
    assert fired == sorted(range(50), key=lambda i: (i % 5, i))


def test_cancelled_events_are_skipped_and_not_counted(sim):
    fired = []
    events = [sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(6)]
    events[0].cancel()
    events[2].cancel()
    assert sim.pending() == 4
    assert sim.peek() == 2.0  # drops the cancelled head
    sim.run(max_events=2)  # cancelled events do not use up the budget
    assert fired == [1, 3]
    assert sim.events_processed == 2
    assert sim.now == 4.0
    events[5].cancel()
    assert sim.pending() == 1 and sim.peek() == 5.0
    sim.run()
    assert fired == [1, 3, 4]
    assert sim.peek() is None and sim.pending() == 0


def test_cancel_from_inside_a_callback_at_the_same_instant(sim):
    fired = []
    victim = []
    sim.schedule(1.0, lambda: victim[0].cancel())
    victim.append(sim.schedule(1.0, lambda: fired.append("victim")))
    sim.schedule(1.0, lambda: fired.append("bystander"))
    sim.run()
    assert fired == ["bystander"]


def test_until_is_inclusive_and_sets_the_clock_only_when_events_remain(sim):
    fired = []
    sim.schedule(2.0, lambda: fired.append("at-until"))
    sim.schedule(3.0, lambda: fired.append("after"))
    assert sim.run(until=2.0) == 2.0
    assert fired == ["at-until"]  # an event exactly at ``until`` fires
    assert sim.run(until=2.5) == 2.5  # events remain: clock moves to until
    assert sim.now == 2.5 and fired == ["at-until"]
    assert sim.run(until=10.0) == 3.0  # heap drained: last event's time
    assert fired == ["at-until", "after"]


def test_until_clock_with_only_a_cancelled_event_beyond_it(sim):
    sim.schedule(5.0, lambda: None).cancel()
    assert sim.run(until=2.0) == 2.0
    assert sim.run() == 2.0  # the cancelled event never moves the clock
    assert sim.events_processed == 0
