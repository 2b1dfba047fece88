"""Tests for the event calendar and simulation engine."""

import pytest

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import ArrivalEvent, CallbackEvent, Event, EventQueue


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(2.0, lambda: order.append("b"))
        queue.schedule(1.0, lambda: order.append("a"))
        queue.schedule(3.0, lambda: order.append("c"))
        while queue:
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        order = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: order.append(n))
        while queue:
            queue.pop().action()
        assert order == ["a", "b", "c"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(2.0, lambda: fired.append("y"))
        event.cancel()
        while queue:
            queue.pop().action()
        assert fired == ["y"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_len_and_peek(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(5.0, lambda: None)
        event = queue.schedule(1.0, lambda: None)
        assert len(queue) == 2
        assert queue.peek_time() == 1.0
        event.cancel()
        assert queue.peek_time() == 5.0
        assert len(queue) == 1

    def test_peek_time_detaches_discarded_cancelled_entries(self):
        """Regression: peek_time() drops cancelled heads from the heap, so it
        must also detach them exactly as pop() does — a handle kept around
        (flag manually reset, then re-cancelled) would otherwise decrement
        the live count for an entry that already left the heap."""
        queue = EventQueue()
        head = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        head.cancel()
        assert queue.peek_time() == 2.0
        assert head._queue is None  # discarded => detached
        head.cancelled = False  # hostile flag reset
        head.cancel()  # must be a no-op now
        assert len(queue) == 1
        assert queue.pop() is not None
        assert queue.pop() is None

    def test_cancel_after_execution_is_a_noop(self):
        """Cancelling an already-executed handle must not corrupt the live
        count (the seed dataclass implementation tolerated this too)."""
        queue = EventQueue()
        executed = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.pop().run()
        executed.cancel()
        assert len(queue) == 1
        assert bool(queue)
        assert queue.pop() is not None

    def test_cancel_after_engine_run_is_a_noop(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until_s=1.5)
        handle.cancel()
        assert len(engine.queue) == 1
        assert bool(engine.queue)

    def test_len_is_tracked_without_scanning(self):
        """The live count survives push/pop/cancel combinations exactly."""
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        events[3].cancel()
        events[7].cancel()
        events[7].cancel()  # double-cancel must not decrement twice
        assert len(queue) == 8
        popped = 0
        while queue.pop() is not None:
            popped += 1
        assert popped == 8
        assert len(queue) == 0
        assert not queue

    def test_bulk_extend_matches_individual_pushes(self):
        fired = []
        queue = EventQueue()
        queue.schedule(2.5, lambda: fired.append("mid"))
        queue.extend([CallbackEvent(float(t), lambda t=t: fired.append(t)) for t in (3, 1, 2)])
        while queue:
            queue.pop().run()
        assert fired == [1, 2, "mid", 3]

    def test_extend_rejects_negative_times(self):
        with pytest.raises(ValueError):
            EventQueue().extend([CallbackEvent(-1.0, lambda: None)])

    def test_extend_rollback_detaches_partial_batch(self):
        """A failed bulk load must not leave handles that can corrupt the
        live count through a later cancel()."""
        queue = EventQueue()
        kept = queue.schedule(1.0, lambda: None)
        rolled_back = CallbackEvent(2.0, lambda: None)
        with pytest.raises(ValueError):
            queue.extend([rolled_back, CallbackEvent(-1.0, lambda: None)])
        assert len(queue) == 1
        rolled_back.cancel()
        assert len(queue) == 1
        assert queue.pop() is kept

    def test_typed_event_dispatches_by_kind(self):
        class FakeFrontend:
            def __init__(self):
                self.submissions = 0

            def submit(self):
                self.submissions += 1

        frontend = FakeFrontend()
        queue = EventQueue()
        queue.push(ArrivalEvent(1.0, frontend))
        queue.pop().run()
        assert frontend.submissions == 1

    def test_base_event_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Event(1.0).run()


class TestSimulationEngine:
    def test_clock_advances_to_event_times(self):
        engine = SimulationEngine()
        times = []
        engine.schedule(0.5, lambda: times.append(engine.now_s))
        engine.schedule(1.5, lambda: times.append(engine.now_s))
        engine.run()
        assert times == [0.5, 1.5]
        assert engine.now_s == 1.5
        assert engine.events_processed == 2

    def test_run_until_horizon(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        stop_time = engine.run(until_s=5.0)
        assert fired == [1]
        assert stop_time == 5.0
        # The later event is still pending and runs when resumed.
        engine.run()
        assert fired == [1, 10]

    def test_horizon_authoritative_when_calendar_drains_early(self):
        """Regression: with no event beyond the horizon the clock must still
        land exactly on ``until_s``, not on the last processed event."""
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        stop_time = engine.run(until_s=5.0)
        assert stop_time == 5.0
        assert engine.now_s == 5.0

    def test_horizon_on_empty_calendar(self):
        engine = SimulationEngine()
        assert engine.run(until_s=3.0) == 3.0
        assert engine.now_s == 3.0

    def test_exhausted_event_budget_does_not_jump_to_horizon(self):
        """A run stopped by max_events is mid-flight: the clock stays at the
        last processed event so the caller can resume."""
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        stop_time = engine.run(until_s=10.0, max_events=2)
        assert stop_time == 2.0
        assert engine.now_s == 2.0
        assert engine.run(until_s=10.0) == 10.0

    def test_schedule_in_relative_delay(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: engine.schedule_in(0.5, lambda: None))
        engine.run()
        assert engine.now_s == pytest.approx(1.5)

    def test_scheduling_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule(0.5, lambda: None)
        with pytest.raises(ValueError):
            engine.schedule_in(-1.0, lambda: None)

    def test_events_spawned_during_run_are_processed(self):
        engine = SimulationEngine()
        seen = []

        def cascade(depth):
            seen.append(depth)
            if depth < 3:
                engine.schedule_in(0.1, lambda: cascade(depth + 1))

        engine.schedule(0.0, lambda: cascade(0))
        engine.run()
        assert seen == [0, 1, 2, 3]

    def test_max_events_budget(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        engine.run(max_events=4)
        assert engine.events_processed == 4

    def test_step(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

    def test_raising_callback_keeps_queue_accounting_exact(self):
        """A callback exception must not corrupt the live count: the popped
        events (including the raising one) leave len(queue) consistent."""
        engine = SimulationEngine()

        def boom():
            raise RuntimeError("injected")

        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, boom)
        engine.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            engine.run()
        assert engine.events_processed == 2  # first event + the raising one
        assert len(engine.queue) == 1
        engine.run()
        assert len(engine.queue) == 0
        assert not engine.queue
