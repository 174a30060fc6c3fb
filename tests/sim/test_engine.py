"""Simulation-kernel tests."""

import heapq

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Engine, SimulationError
from repro.sim.events import Event


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.schedule(3.0, lambda: fired.append(3))
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        eng.run()
        assert fired == [1, 2, 3]

    def test_ties_broken_by_priority_then_insertion(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append("late"), priority=5)
        eng.schedule(1.0, lambda: fired.append("a"))
        eng.schedule(1.0, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b", "late"]

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(2.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [2.5]
        assert eng.now == 2.5

    def test_schedule_in_relative(self):
        eng = Engine()
        seen = []
        eng.schedule_in(1.0, lambda: eng.schedule_in(2.0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [3.0]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.schedule(5.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError, match="before current time"):
            eng.schedule(1.0, lambda: None)

    def test_scheduling_at_now_allowed(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: eng.schedule(1.0, lambda: fired.append(eng.now)))
        eng.run()
        assert fired == [1.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            Engine().schedule_in(-1.0, lambda: None)


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(10.0, lambda: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0
        eng.run()
        assert fired == [1, 10]

    def test_event_at_until_boundary_fires(self):
        eng = Engine()
        fired = []
        eng.schedule(5.0, lambda: fired.append(5))
        eng.run(until=5.0)
        assert fired == [5]

    def test_max_events_guard(self):
        eng = Engine()

        def storm():
            eng.schedule_in(0.0, storm, label="storm")

        eng.schedule(0.0, storm)
        with pytest.raises(SimulationError, match="event storm"):
            eng.run(max_events=100)

    def test_reentrant_run_rejected(self):
        eng = Engine()

        def recurse():
            eng.run()

        eng.schedule(1.0, recurse)
        with pytest.raises(SimulationError, match="re-entrant"):
            eng.run()

    def test_step(self):
        eng = Engine()
        fired = []
        eng.schedule(1.0, lambda: fired.append(1))
        eng.schedule(2.0, lambda: fired.append(2))
        assert eng.step()
        assert fired == [1]
        assert eng.step()
        assert not eng.step()

    def test_events_processed_counter(self):
        eng = Engine()
        for k in range(5):
            eng.schedule(float(k), lambda: None)
        eng.run()
        assert eng.events_processed == 5


class TestErrorText:
    """The guard-rail messages are operator-facing; pin their contents."""

    def test_max_events_message_names_limit_time_and_culprit(self):
        eng = Engine()

        def storm():
            eng.schedule_in(0.0, storm, label="storm")

        eng.schedule(0.0, storm, label="storm")
        with pytest.raises(SimulationError) as excinfo:
            eng.run(max_events=50)
        message = str(excinfo.value)
        assert "exceeded max_events=50" in message
        assert "t=0.0" in message
        assert "'storm'" in message
        assert "likely an event storm" in message

    def test_reentrant_message_and_recovery(self):
        eng = Engine()
        seen = []

        def recurse():
            with pytest.raises(
                SimulationError, match=r"already running \(re-entrant run call\)"
            ):
                eng.run()
            seen.append("caught")

        eng.schedule(1.0, recurse)
        eng.run()
        assert seen == ["caught"]
        # The guard must not leave the engine wedged: a fresh run works.
        eng.schedule(2.0, lambda: seen.append("after"))
        eng.run()
        assert seen == ["caught", "after"]

    def test_run_resumes_after_event_storm_error(self):
        eng = Engine()
        for k in range(5):
            eng.schedule(float(k), lambda: None)
        with pytest.raises(SimulationError, match="event storm"):
            eng.run(max_events=2)
        eng.run()  # drains the remaining three events
        assert eng.events_processed == 5


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(1.0, lambda: fired.append("no"))
        eng.schedule(2.0, lambda: fired.append("yes"))
        handle.cancel()
        eng.run()
        assert fired == ["yes"]

    def test_cancel_idempotent(self):
        eng = Engine()
        handle = eng.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_peek_time_skips_cancelled(self):
        eng = Engine()
        h = eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        h.cancel()
        assert eng.peek_time() == 2.0

    def test_peek_time_empty(self):
        assert Engine().peek_time() is None

    def test_handle_exposes_metadata(self):
        eng = Engine()
        h = eng.schedule(4.0, lambda: None, label="thing")
        assert h.time == 4.0
        assert h.label == "thing"
        assert not h.cancelled


class TestScheduleRun:
    @staticmethod
    def _stepper(eng, times, fired):
        """A run step that records each firing and returns the next time."""
        pending = list(times)

        def step():
            fired.append(eng.now)
            return pending.pop(0) if pending else None

        return step

    def test_fires_each_step_then_ends(self):
        eng = Engine()
        fired = []
        eng.schedule_run(1.0, self._stepper(eng, [2.0, 2.0, 5.0], fired), label="r")
        eng.run()
        assert fired == [1.0, 2.0, 2.0, 5.0]
        assert eng.events_processed == 4
        assert eng.pending == 0

    def test_ties_order_as_if_scheduled_at_each_firing(self):
        # The run's second sub-event is keyed when the first fires, after
        # the independent event at t=2 was scheduled, so it fires second.
        eng = Engine()
        order = []
        eng.schedule(0.5, lambda: eng.schedule(2.0, lambda: order.append("other")))
        step = self._stepper(eng, [2.0], [])
        eng.schedule_run(1.0, lambda: (order.append("run"), step())[1])
        eng.run()
        assert order == ["run", "other", "run"]

    def test_cancel_ends_run_at_next_boundary(self):
        eng = Engine()
        fired = []
        handle = eng.schedule_run(1.0, self._stepper(eng, [2.0, 3.0], fired))
        eng.schedule(1.5, handle.cancel)
        eng.run()
        assert fired == [1.0]
        assert handle.cancelled

    def test_backward_step_rejected(self):
        eng = Engine()
        eng.schedule_run(2.0, lambda: 1.0, label="back")
        with pytest.raises(SimulationError, match="stepped backwards"):
            eng.run()

    def test_past_start_rejected(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError, match="before current time"):
            eng.schedule_run(0.5, lambda: None)


class TestEventOrder:
    @given(
        st.lists(
            st.tuples(
                # few distinct values, so equal times and priorities are common
                st.sampled_from([0.0, 1e-9, 0.5, 0.5 + 2**-53, 1.0, 3.0]),
                st.integers(min_value=-1, max_value=2),
            ),
            max_size=40,
        )
    )
    def test_heap_order_is_time_priority_seq(self, keys):
        heap = []
        for seq, (time, priority) in enumerate(keys):
            heapq.heappush(heap, Event(time, priority, seq, action=lambda: None))
        popped = [heapq.heappop(heap) for _ in range(len(heap))]
        want = sorted((time, priority, seq) for seq, (time, priority) in enumerate(keys))
        assert [(ev.time, ev.priority, ev.seq) for ev in popped] == want
