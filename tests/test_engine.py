"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestScheduling:
    def test_runs_callbacks_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, order.append, "b")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(3.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_in_scheduling_order(self, engine):
        order = []
        for tag in "abc":
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(5.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.5]
        assert engine.now == 5.5

    def test_schedule_after_relative(self, engine):
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_after(0.5, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.5]

    def test_rejects_past_events(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(0.5, lambda: None)

    def test_rejects_nonfinite_time(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(float("inf"), lambda: None)

    def test_rejects_negative_delay(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_after(-1.0, lambda: None)

    def test_tiny_past_clamped_to_now(self, engine):
        # Round-off from rate integration must not crash the engine.
        engine.schedule(1.0, lambda: engine.schedule(engine.now - 1e-15, lambda: None))
        engine.run()  # no exception


class TestCancellation:
    def test_cancelled_event_not_run(self, engine):
        seen = []
        h = engine.schedule(1.0, seen.append, "x")
        h.cancel()
        engine.run()
        assert seen == []

    def test_cancel_is_idempotent(self, engine):
        h = engine.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        engine.run()

    def test_cancel_none_is_noop(self, engine):
        Engine.cancel(None)

    def test_cancel_releases_references(self, engine):
        payload = object()
        h = engine.schedule(1.0, lambda x: None, payload)
        h.cancel()
        assert h.args == ()

    def test_pending_count_excludes_cancelled(self, engine):
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h1.cancel()
        assert engine.pending_count() == 1


class TestRunControl:
    def test_run_until_stops_before_later_events(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, "a")
        engine.schedule(5.0, seen.append, "b")
        engine.run(until=2.0)
        assert seen == ["a"]
        assert engine.now == 2.0

    def test_run_until_resumable(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, "a")
        engine.schedule(5.0, seen.append, "b")
        engine.run(until=2.0)
        engine.run()
        assert seen == ["a", "b"]

    def test_stop_exits_loop(self, engine):
        seen = []
        engine.schedule(1.0, lambda: (seen.append("a"), engine.stop()))
        engine.schedule(2.0, seen.append, "b")
        engine.run()
        assert seen == [("a", None)] or seen == ["a"] or len(seen) == 1

    def test_max_events_guard(self, engine):
        def reschedule():
            engine.schedule_after(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_not_reentrant(self, engine):
        def nested():
            engine.run()

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run()

    def test_events_executed_counter(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda: None)
        engine.run()
        assert engine.events_executed == 3

    def test_empty_run_returns_now(self, engine):
        assert engine.run() == 0.0

    def test_next_event_time(self, engine):
        assert engine.next_event_time() is None
        h = engine.schedule(3.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        assert engine.next_event_time() == 3.0
        h.cancel()
        assert engine.next_event_time() == 5.0


class TestLazyHeapMaintenance:
    def test_pending_count_exact_after_cancel_and_run(self, engine):
        handles = [engine.schedule(float(t + 1), lambda: None) for t in range(6)]
        assert engine.pending_count() == 6
        handles[0].cancel()
        handles[3].cancel()
        assert engine.pending_count() == 4
        handles[3].cancel()  # idempotent: must not double-count
        assert engine.pending_count() == 4
        engine.run()
        assert engine.pending_count() == 0

    def test_cancel_after_run_does_not_corrupt_count(self, engine):
        h = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        h.cancel()  # already executed: a pure no-op
        assert engine.pending_count() == 1

    def test_next_event_time_pops_cancelled_heads(self, engine):
        handles = [engine.schedule(float(t + 1), lambda: None) for t in range(5)]
        for h in handles[:4]:
            h.cancel()
        assert engine.next_event_time() == 5.0
        # The dead heads are gone, not skipped-over on every call.
        assert len(engine._heap) == 1

    def test_next_event_time_all_cancelled(self, engine):
        for t in range(3):
            engine.schedule(float(t + 1), lambda: None).cancel()
        assert engine.next_event_time() is None
        assert len(engine._heap) == 0

    def test_heap_bounded_under_heavy_cancellation(self, engine):
        # Reschedule-and-cancel churn (the scheduler's rate-change
        # pattern): without compaction the heap grows by one dead entry
        # per cycle.
        live = []
        for i in range(5000):
            h = engine.schedule(1.0 + i * 1e-6, lambda: None)
            if i % 100 == 0:
                live.append(h)
            else:
                h.cancel()
        assert engine.pending_count() == len(live)
        assert len(engine._heap) < 1000
        engine.run()
        assert engine.events_executed == len(live)

    def test_compaction_count_bounded_by_hysteresis(self, engine):
        # Regression test for compaction thrash: a churn pattern that
        # hovers just past the dead-entry threshold must not trigger an
        # O(n) rebuild on every schedule.  The floor guarantees at least
        # ~128 schedules of accumulation between rebuilds, so each
        # rebuild's O(heap) cost is paid for by the entries that caused
        # it — amortized O(1) per schedule, never per-call O(n).
        churn = 20_000
        for i in range(churn):
            engine.schedule(1.0 + i * 1e-7, lambda: None).cancel()
        assert engine.compactions > 0  # the mechanism did engage
        assert engine.compactions <= churn // 128 + 2  # ...at the amortized rate
        assert len(engine._heap) < 1024
        assert engine.pending_count() == 0

    def test_compaction_floor_resets_growth_budget(self, engine):
        # After a compaction the surviving heap sets the next floor:
        # a large live population must not be rebuilt repeatedly by
        # small amounts of follow-on churn.
        live = [engine.schedule(10.0 + i * 1e-6, lambda: None) for i in range(2000)]
        for i in range(5000):
            engine.schedule(1.0 + i * 1e-7, lambda: None).cancel()
        after_burst = engine.compactions
        # Follow-on churn below the (now raised) floor: no new rebuilds
        # until dead entries again dominate the bigger heap.
        for i in range(500):
            engine.schedule(2.0 + i * 1e-7, lambda: None).cancel()
        assert engine.compactions == after_burst
        assert engine.pending_count() == len(live)
        engine.run()
        assert engine.events_executed == len(live)

    def test_compaction_preserves_execution_order(self, engine):
        order = []
        keep = []
        for i in range(300):
            h = engine.schedule(1.0 + (i % 7) * 0.1, order.append, i)
            if i % 3 == 0:
                keep.append((h.time, i))
            else:
                h.cancel()
        engine.run()
        expected = [i for _, i in sorted(keep, key=lambda p: (p[0], p[1]))]
        assert order == expected


class TestReschedule:
    @staticmethod
    def _moves(engine, move):
        """Four tied events, two of them moved: one within its tie, one
        onto a later tie."""
        order = []
        handles = {tag: engine.schedule(1.0, order.append, tag) for tag in "abcd"}
        engine.schedule(2.0, order.append, "e")
        move(engine, handles, "b", 1.0, order)
        move(engine, handles, "a", 2.0, order)
        engine.run()
        return order

    def test_tie_pop_order_matches_cancel_and_schedule(self):
        def cancel_and_schedule(engine, handles, tag, time, order):
            handles[tag].cancel()
            handles[tag] = engine.schedule(time, order.append, tag)

        def reschedule(engine, handles, tag, time, order):
            assert engine.reschedule(handles[tag], time) is handles[tag]

        old, new = Engine(), Engine()
        expected = self._moves(old, cancel_and_schedule)
        assert expected == ["c", "d", "b", "e", "a"]
        assert self._moves(new, reschedule) == expected
        assert new._seq == old._seq

    def test_pending_count_exact_over_repeated_reschedules(self, engine):
        handles = [engine.schedule(float(t + 1), lambda: None) for t in range(3)]
        for i in range(200):
            engine.reschedule(handles[i % 3], 5.0 + i * 1e-3)
            assert engine.pending_count() == 3
        engine.run()
        assert engine.events_executed == 3
        assert engine.pending_count() == 0

    def test_compaction_drops_stale_entries(self, engine):
        seen = []
        h = engine.schedule(1.0, seen.append, "x")
        for i in range(5000):
            engine.reschedule(h, 1.0 + i * 1e-6)
        assert engine.compactions > 0
        assert len(engine._heap) < 1024
        assert engine.pending_count() == 1
        engine.run()
        assert seen == ["x"]
        assert engine.now == 1.0 + 4999 * 1e-6

    def test_compaction_bounded_by_hysteresis_under_reschedule(self, engine):
        # the cancel-only churn bound of TestLazyHeapMaintenance holds
        # when the dead entries come from re-timing instead
        churn = 20_000
        h = engine.schedule(1.0, lambda: None)
        for i in range(churn):
            engine.reschedule(h, 1.0 + i * 1e-7)
        assert 0 < engine.compactions <= churn // 128 + 2
        assert len(engine._heap) < 1024

    def test_cancel_after_reschedule(self, engine):
        seen = []
        h = engine.schedule(1.0, seen.append, "x")
        engine.reschedule(h, 2.0)
        engine.reschedule(h, 3.0)
        h.cancel()
        assert engine.pending_count() == 0
        assert engine.next_event_time() is None
        engine.run()
        assert seen == []

    def test_reschedule_finished_handle_raises(self, engine):
        ran = engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.reschedule(ran, 2.0)
        cancelled = engine.schedule(3.0, lambda: None)
        cancelled.cancel()
        with pytest.raises(SimulationError):
            engine.reschedule(cancelled, 4.0)
        assert engine.pending_count() == 0

    def test_reschedule_validates_time(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=1.5)
        h2 = engine.schedule(3.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.reschedule(h2, 0.5)
        with pytest.raises(SimulationError):
            engine.reschedule(h2, float("nan"))
        assert engine.pending_count() == 1 and h2.time == 3.0  # rejected: untouched
        assert engine.reschedule(h2, 1.5 - 1e-15).time == 1.5  # round-off clamps
        assert engine.pending_count() == 1

    def test_next_event_time_skips_stale_heads(self, engine):
        h = engine.schedule(1.0, lambda: None)
        engine.schedule(3.0, lambda: None)
        engine.reschedule(h, 2.0)
        assert engine.next_event_time() == 2.0
        engine.reschedule(h, 5.0)
        assert engine.next_event_time() == 3.0
        # both dead heads popped, never rescanned
        assert len(engine._heap) == 2
        assert engine.pending_count() == 2
