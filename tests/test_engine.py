"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run(10.0)
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run(2.0)
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run(5.0)
        assert seen == [2.5]

    def test_run_leaves_clock_at_until(self):
        sim = Simulator()
        sim.run(7.0)
        assert sim.now == 7.0

    def test_event_beyond_until_not_fired(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, 1)
        sim.run(4.999)
        assert fired == []
        sim.run(5.0)
        assert fired == [1]

    def test_schedule_during_run(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run(3.0)
        assert seen == [2.0]

    def test_kwargs_passed(self):
        sim = Simulator()
        got = {}
        sim.schedule(1.0, lambda **kw: got.update(kw), x=1, y="z")
        sim.run(2.0)
        assert got == {"x": 1, "y": "z"}

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(4.0)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run(2.0)
        assert sim.events_processed == 4


class TestCancellation:
    def test_cancelled_event_not_fired(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run(2.0)

    def test_pending_property_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run(2.0)
        assert not handle.pending and handle.fired

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        assert sim.pending_count() == 1
        assert keep.pending


class TestRunUntilIdle:
    def test_drains_all_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(100.0, seen.append, 1)
        sim.run_until_idle()
        assert seen == [1]
        assert sim.now == 100.0

    def test_respects_max_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(50.0, seen.append, 2)
        sim.run_until_idle(max_time=10.0)
        assert seen == [1]
        assert sim.now == 10.0


class TestPeriodicTask:
    def test_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now))
        sim.run(10.0)
        assert times == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_explicit_start(self):
        sim = Simulator()
        times = []
        sim.call_every(2.0, lambda: times.append(sim.now), start=1.0)
        sim.run(6.0)
        assert times == [1.0, 3.0, 5.0]

    def test_cancel_stops_firing(self):
        sim = Simulator()
        times = []
        task = sim.call_every(1.0, lambda: times.append(sim.now))
        sim.run(3.0)
        task.cancel()
        sim.run(6.0)
        assert times == [1.0, 2.0, 3.0]
        assert task.stopped

    def test_jitter_shifts_single_firing_without_drift(self):
        sim = Simulator()
        times = []
        jitters = iter([0.5, 0.0, 0.0, 0.0, 0.0])  # one per (re)arm
        sim.call_every(2.0, lambda: times.append(sim.now), jitter=lambda: next(jitters))
        sim.run(6.5)
        # Nominal grid stays 2,4,6 even though the first firing slid.
        assert times == [2.5, 4.0, 6.0]

    def test_callback_may_cancel_own_task(self):
        sim = Simulator()
        count = []

        def cb():
            count.append(sim.now)
            if len(count) == 2:
                task.cancel()

        task = sim.call_every(1.0, cb)
        sim.run(10.0)
        assert count == [1.0, 2.0]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_every(0.0, lambda: None)

    def test_firings_counted(self):
        sim = Simulator()
        task = sim.call_every(1.0, lambda: None)
        sim.run(4.0)
        assert task.firings == 4


# ----------------------------------------------------------------------
# Property: firing order is the sort by (time, scheduling order)
# ----------------------------------------------------------------------
# One generated event: (parent, relative?, offset, cancels).  An event
# whose parent index is lower than its own is scheduled by that parent's
# callback (so events are added during run); any other is scheduled up
# front.  ``relative`` picks ``schedule(offset)`` over
# ``schedule_at(now + offset)``; the few offsets make equal timestamps
# common.  When it fires, an event cancels event ``cancels`` if that one
# was scheduled by then (pending or already fired).
_EVENT = st.tuples(
    st.integers(-1, 24),
    st.booleans(),
    st.sampled_from([0.0, 0.25, 1.0, 2.5]),
    st.integers(-1, 24),
)


class _ReferenceQueue:
    """The specification: repeatedly fire the live event that sorts first
    by (time, scheduling order)."""

    def __init__(self, events):
        self.events = events
        self.now = 0.0
        self.queue = []  # (time, order, event index)
        self.order = 0
        self.scheduled = set()
        self.cancelled = set()
        self.fired = []

    def place(self, i):
        self.queue.append((self.now + self.events[i][2], self.order, i))
        self.order += 1
        self.scheduled.add(i)

    def pending(self):
        return sorted(e for e in self.queue if e[2] not in self.cancelled)

    def run(self, until, children):
        while True:
            live = self.pending()
            if not live or live[0][0] > until:
                break
            time, order, i = live[0]
            self.queue.remove(live[0])
            self.now = time
            self.fired.append((i, time))
            for child in children[i]:
                self.place(child)
            target = self.events[i][3]
            if target in self.scheduled:
                self.cancelled.add(target)


@settings(max_examples=200, deadline=None)
@given(
    events=st.lists(_EVENT, min_size=1, max_size=25),
    untils=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5, 4.0]), max_size=4),
)
def test_firing_order_matches_reference_sort(events, untils):
    children = {i: [] for i in range(len(events))}
    roots = []
    for i, (parent, _, _, _) in enumerate(events):
        (children[parent] if 0 <= parent < i else roots).append(i)

    sim = Simulator()
    handles = {}
    fired = []

    def place(i):
        _, relative, offset, _ = events[i]
        if relative:
            handles[i] = sim.schedule(offset, fire, i)
        else:
            handles[i] = sim.schedule_at(sim.now + offset, fire, i)

    def fire(i):
        fired.append((i, sim.now))
        for child in children[i]:
            place(child)
        target = events[i][3]
        if target in handles:
            handles[target].cancel()

    ref = _ReferenceQueue(events)
    for i in roots:
        place(i)
        ref.place(i)

    for until in sorted(untils):
        sim.run(until)
        ref.run(until, children)
        assert fired == ref.fired
        assert sim.now == until
        assert sim.events_processed == len(ref.fired)
        assert sim.pending_count() == len(ref.pending())
    sim.run_until_idle()
    ref.run(float("inf"), children)
    assert fired == ref.fired
    assert sim.events_processed == len(fired)
    assert sim.pending_count() == 0
