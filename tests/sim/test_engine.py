"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError, Watchdog


class TestScheduling:
    def test_initial_time_is_zero(self):
        assert Engine().now == 0.0

    def test_custom_start_time(self):
        # Simulated time always starts at 0.
        with pytest.raises(TypeError):
            Engine(start_time=100.0)

    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, lambda: order.append("c"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(2.0, lambda: order.append("b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_same_time_priority_orders_execution(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append("low"), priority=10)
        engine.schedule(1.0, lambda: order.append("high"), priority=-10)
        engine.run()
        assert order == ["high", "low"]

    def test_same_time_same_priority_is_fifo(self):
        engine = Engine()
        order = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: order.append(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_events_scheduled_during_execution_run(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(1.0, lambda: order.append("inner"))

        engine.schedule(1.0, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 2.0


class TestNaNTimes:
    """A NaN time compares false with every other: each entry point that
    takes a time refuses it rather than run events out of order or
    never reach its end time."""

    def test_schedule_rejects_a_nan_delay(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule(float("nan"), lambda: None)
        assert engine.pending_count() == 0

    def test_schedule_at_rejects_a_nan_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(5.0, lambda: seen.append(engine.now))
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule_at(float("nan"), lambda: seen.append(engine.now))
        engine.schedule_at(7.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0, 7.0]

    def test_every_rejects_a_nan_interval(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="nan"):
            engine.every(float("nan"), lambda: None)
        assert engine.pending_count() == 0

    def test_every_rejects_a_nan_start(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="nan"):
            engine.every(1.0, lambda: None, start=float("nan"))
        assert engine.pending_count() == 0

    def test_run_until_rejects_a_nan_end_time(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append(engine.now))
        with pytest.raises(SimulationError, match="nan"):
            engine.run_until(float("nan"))
        assert fired == []
        assert engine.now == 0.0


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_handle_state_transitions(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        assert handle.pending
        engine.run()
        assert handle.executed
        assert not handle.pending


class TestRunUntil:
    def test_run_until_executes_events_at_boundary(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("at"))
        engine.schedule(5.1, lambda: fired.append("after"))
        engine.run_until(5.0)
        assert fired == ["at"]
        assert engine.now == 5.0

    def test_run_until_advances_clock_without_events(self):
        engine = Engine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_run_until_backwards_rejected(self):
        engine = Engine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_run_until_can_continue(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, lambda: fired.append(1))
        engine.schedule(7.0, lambda: fired.append(2))
        engine.run_until(5.0)
        assert fired == [1]
        engine.run_until(10.0)
        assert fired == [1, 2]

    def test_run_max_events(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        executed = engine.run(max_events=4)
        assert executed == 4
        assert fired == [0, 1, 2, 3]

    def test_stop_leaves_the_clock_at_the_stopping_event(self):
        engine = Engine()
        ran = []

        def stopper():
            ran.append(engine.now)
            engine.stop()

        engine.schedule_at(2.0, stopper)
        engine.schedule_at(2.5, lambda: ran.append(engine.now))
        engine.run_until(5.0)
        assert engine.now == 2.0
        # A later event before the old end time is not in the past.
        engine.schedule_at(3.0, lambda: ran.append(engine.now))
        engine.run_until(10.0)
        assert ran == [2.0, 2.5, 3.0]
        assert engine.now == 10.0


class TestPeriodic:
    def test_periodic_fires_at_interval(self):
        engine = Engine()
        times = []
        engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_periodic_custom_start(self):
        engine = Engine()
        times = []
        engine.every(10.0, lambda: times.append(engine.now), start=0.0)
        engine.run_until(25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_periodic_cancel_stops_firing(self):
        engine = Engine()
        times = []
        handle = engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(25.0)
        handle.cancel()
        engine.run_until(100.0)
        assert times == [10.0, 20.0]
        assert handle.fired == 2

    def test_periodic_cancel_from_inside_callback(self):
        engine = Engine()
        count = []
        handle = engine.every(1.0, lambda: (count.append(1), handle.cancel()))
        engine.run_until(10.0)
        assert len(count) == 1

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)

    def test_stop_interrupts_run(self):
        engine = Engine()
        fired = []

        def stopper():
            fired.append(engine.now)
            if len(fired) == 3:
                engine.stop()

        engine.every(1.0, stopper)
        engine.run_until(100.0)
        assert len(fired) == 3

    def test_pending_count_reflects_cancellations(self):
        engine = Engine()
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending_count() == 2
        h1.cancel()
        assert engine.pending_count() == 1

    def test_events_executed_counter(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.events_executed == 5


class TestHeapCompaction:
    def test_cancel_churn_compacts_heap(self):
        # Lazy cancellation must not let the heap grow without bound:
        # once cancelled entries dominate, the engine rebuilds the heap.
        engine = Engine()
        keep = []
        for round_ in range(10):
            handles = [
                engine.schedule(1000.0 + round_, lambda: None)
                for _ in range(100)
            ]
            keep.append(handles.pop())
            for handle in handles:
                handle.cancel()
        assert engine.heap_compactions > 0
        assert engine.pending_count() == len(keep)
        # Bounded at ~2× live: far below the 1000 entries ever scheduled.
        assert engine.heap_size() <= 2 * engine.pending_count() + Engine._COMPACT_MIN

    def test_compaction_preserves_execution_order(self):
        engine = Engine()
        order = []
        survivors = []
        for i in range(200):
            handle = engine.schedule(
                float(i + 1), lambda i=i: order.append(i)
            )
            if i % 10 == 0:
                survivors.append(i)
            else:
                handle.cancel()
        assert engine.heap_compactions > 0
        engine.run()
        assert order == survivors
        assert engine.pending_count() == 0

    def test_periodic_survives_compaction(self):
        # Regression: every()'s reschedule closure must keep pushing onto
        # the engine's live heap even after _compact() rebuilds it. With a
        # stale alias the periodic silently stopped after one firing and
        # pending_count() stayed wrong forever.
        engine = Engine()
        ticks = []
        engine.every(1.0, lambda: ticks.append(engine.now))

        # Cancellation churn before t=1 crosses the compaction threshold.
        handles = [engine.schedule(0.5, lambda: None) for _ in range(200)]
        for handle in handles:
            handle.cancel()
        assert engine.heap_compactions > 0

        engine.run_until(10.0)
        assert ticks == [float(t) for t in range(1, 11)]
        # The next firing (t=11) is the only live event left.
        assert engine.pending_count() == 1
        assert engine.heap_size() >= 1

    def test_periodic_survives_mid_run_compaction(self):
        # Same regression, but with churn generated from inside callbacks
        # between periodic firings (the watchdog-feed/retry-backoff shape).
        engine = Engine()
        ticks = []
        engine.every(1.0, lambda: ticks.append(engine.now))

        def churn() -> None:
            for handle in [engine.schedule(0.3, lambda: None) for _ in range(80)]:
                handle.cancel()

        for t in (0.5, 2.5, 4.5):
            engine.schedule(t, churn)
        engine.run_until(6.0)
        assert engine.heap_compactions >= 3
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert engine.pending_count() == 1

    def test_pending_count_is_exact_under_churn(self):
        engine = Engine()
        handles = [engine.schedule(5.0, lambda: None) for _ in range(300)]
        for handle in handles[::2]:
            handle.cancel()
        assert engine.pending_count() == 150
        engine.run()
        assert engine.pending_count() == 0
        assert engine.events_executed == 150


class TestWatchdog:
    def test_fires_at_timeout_without_feed(self):
        engine = Engine()
        fired = []
        dog = Watchdog(engine, 10.0, lambda: fired.append(engine.now))
        dog.start()
        engine.run_until(9.9)
        assert fired == []
        engine.run_until(10.0)
        assert fired == [10.0]
        assert dog.expirations == 1
        assert not dog.armed

    def test_feed_pushes_deadline_out(self):
        engine = Engine()
        fired = []
        dog = Watchdog(engine, 10.0, lambda: fired.append(engine.now))
        dog.start()
        engine.run_until(6.0)
        dog.feed()
        engine.run_until(15.0)
        assert fired == []
        engine.run_until(16.0)
        assert fired == [16.0]

    def test_cancel_disarms_without_firing(self):
        engine = Engine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(1))
        dog.start()
        dog.cancel()
        engine.run_until(20.0)
        assert fired == []
        assert dog.expirations == 0

    def test_fires_at_most_once_per_arm(self):
        engine = Engine()
        fired = []
        dog = Watchdog(engine, 5.0, lambda: fired.append(engine.now))
        dog.start()
        engine.run_until(30.0)
        assert fired == [5.0]
        dog.feed()  # re-arming after expiry works
        engine.run_until(40.0)
        assert fired == [5.0, 35.0]
        assert dog.expirations == 2

    def test_expiry_beats_same_tick_default_priority_events(self):
        # The self-fencing property: at an exact deadline tie, the
        # watchdog (priority -1) runs before a rival's default-priority
        # event — a fenced leader stops before a lease stealer acts.
        engine = Engine()
        order = []
        dog = Watchdog(engine, 10.0, lambda: order.append("fence"))
        dog.start()
        engine.schedule(10.0, lambda: order.append("steal"))
        engine.run_until(10.0)
        assert order == ["fence", "steal"]

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Watchdog(Engine(), 0.0, lambda: None)


class TestCycleHooks:
    def test_hook_fires_at_timestamp_boundaries(self):
        engine = Engine()
        boundaries = []
        engine.add_cycle_hook(lambda: boundaries.append(engine.now))
        for t in (1.0, 1.0, 2.0, 5.0):
            engine.schedule_at(t, lambda: None)
        engine.run_until(10.0)
        # The hook fires before the clock advances past each batch:
        # after both t=1 events, after t=2, after t=5 nothing is left
        # (end-of-run quiescence needs an explicit final check).
        assert boundaries == [0.0, 1.0, 2.0]

    def test_hook_not_between_same_timestamp_events(self):
        engine = Engine()
        calls = []
        engine.add_cycle_hook(lambda: calls.append(engine.now))
        for _ in range(5):
            engine.schedule_at(3.0, lambda: None)
        engine.run_until(4.0)
        assert calls == [0.0]  # one boundary, not five

    def test_remove_cycle_hook(self):
        engine = Engine()
        calls = []
        hook = lambda: calls.append(engine.now)  # noqa: E731
        engine.add_cycle_hook(hook)
        engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        engine.run_until(3.0)
        assert calls == [0.0, 1.0]
        engine.remove_cycle_hook(hook)
        engine.remove_cycle_hook(hook)  # idempotent
        engine.schedule_at(4.0, lambda: None)
        engine.run_until(5.0)
        assert calls == [0.0, 1.0]

    def test_hooks_do_not_change_execution(self):
        def run(with_hook):
            engine = Engine()
            order = []
            if with_hook:
                engine.add_cycle_hook(lambda: None)
            engine.every(1.0, lambda: order.append(engine.now))
            engine.run_until(10.0)
            return order, engine.events_executed

        assert run(False) == run(True)

    def test_audit_heap_counts_live_and_cancelled(self):
        engine = Engine()
        handles = [engine.schedule(float(i + 1), lambda: None)
                   for i in range(6)]
        for handle in handles[:2]:
            handle.cancel()
        live, cancelled = engine.audit_heap()
        assert live == 4
        assert cancelled == 2
        assert live == engine.pending_count()
        assert cancelled == engine.cancelled_in_heap

    def test_audit_heap_detects_stale_alias_push(self):
        # Reintroduce the PR 4 compaction bug by hand: push an event
        # onto a captured pre-compaction heap alias. The O(1) counters
        # say one thing, the real heap another — exactly the mismatch
        # the heap-integrity invariant asserts on.
        import heapq

        engine = Engine()
        stale = engine._heap
        handle = engine.schedule(1.0, lambda: None)
        engine._heap = []  # simulate a compaction swapping the list
        heapq.heappush(stale, (2.0, 0, 99, handle))  # orphaned push
        live, cancelled = engine.audit_heap()
        assert live == 0
        assert engine.pending_count() == 1
        assert live != engine.pending_count()
