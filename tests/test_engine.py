"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError


def _entries(engine):
    """Every heap entry the engine holds, dead ones included."""
    return engine._singles + engine._batch


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
        assert len(_entries(engine)) == 1

    def test_next_event_time_all_cancelled(self, engine):
        for t in range(3):
            engine.schedule(float(t + 1), lambda: None).cancel()
        assert engine.next_event_time() is None
        assert len(_entries(engine)) == 0

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
        assert len(_entries(engine)) < 1000
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
        assert len(_entries(engine)) < 1024
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
        assert len(_entries(engine)) < 1024
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
        assert len(_entries(engine)) < 1024

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
        assert len(_entries(engine)) == 2
        assert engine.pending_count() == 2


class TestStaged:
    """`stage`/`restage` hand out seqs at the call and push at `flush`."""

    def test_plain_schedule_between_staged_retimings_keeps_its_seq(self, engine):
        order = []
        a = engine.schedule(1.0, order.append, "a")
        b = engine.schedule(1.0, order.append, "b")
        engine.restage(a, 2.0)
        c = engine.schedule(2.0, order.append, "c")
        engine.restage(b, 2.0)
        assert (a.seq, c.seq, b.seq) == (2, 3, 4)
        assert engine.pending_count() == 3
        engine.flush()
        engine.run()
        assert order == ["a", "c", "b"]

    def test_compaction_while_staged_keeps_staged_entries(self, engine):
        order = []
        doomed = [engine.schedule(5.0 + i * 1e-3, lambda: None) for i in range(140)]
        x = engine.stage(1.0, order.append, "x")
        y = engine.stage(1.5, order.append, "y")
        engine.restage(y, 0.5)  # its first staged entry is dead now
        z = engine.stage(2.0, order.append, "z")
        engine.restage(z, 3.0)
        for h in doomed[:80]:
            h.cancel()
        assert engine.compactions == 0
        engine.schedule(4.0, order.append, "w")  # crosses the dead-entry threshold
        assert engine.compactions == 1
        assert engine._n_cancelled == 0
        assert sorted(e[1] for e in engine._staged) == sorted([x.seq, y.seq, z.seq])
        assert engine.pending_count() == 60 + 4
        engine.flush()
        assert engine.pending_count() == 64
        engine.run(until=4.5)
        assert order == ["y", "x", "z", "w"]

    @staticmethod
    def _loaded(engine, n_live, n_dead):
        """A batch heap of ``n_live`` live and ``n_dead`` dead entries."""
        live = [engine.stage(10.0 + i, lambda: None) for i in range(n_live)]
        doomed = [engine.stage(20.0 + i, lambda: None) for i in range(n_dead)]
        engine.flush()
        for h in doomed:
            h.cancel()
        return live

    def test_large_batch_rebuilds_without_dead_entries(self, engine):
        live = self._loaded(engine, 24, 8)
        engine.schedule(30.0, lambda: None).cancel()  # a dead single
        for h in live[:8]:
            engine.restage(h, 1.0 + h.time)  # 8 entries, 1/4 of a heap of 32
        engine.flush()
        assert len(engine._batch) == engine.pending_count() == 24
        # the rebuild drops the batch heap's dead entries and counts
        # out only those: the singles heap keeps its own
        assert engine._n_cancelled == 1 == len(engine._singles)
        assert engine.compactions == 0  # a rebuild is not a compaction
        engine.run()
        assert engine.events_executed == 24
        assert engine._n_cancelled == 0 and not _entries(engine)

    @pytest.mark.parametrize("n_batch,n_live", [(7, 8), (8, 33)], ids=["few", "small-share"])
    def test_small_batch_is_pushed(self, engine, n_batch, n_live):
        live = self._loaded(engine, n_live, 1)
        for h in live[:n_batch]:
            engine.restage(h, 1.0 + h.time)
        heap_before = len(engine._batch)
        engine.flush()
        assert len(engine._batch) == heap_before + n_batch
        assert engine._n_cancelled == n_batch + 1
        assert engine.pending_count() == n_live
        engine.run()
        assert engine.events_executed == n_live
        assert engine.pending_count() == 0

    @pytest.mark.parametrize("kill", ["restage-twice", "reschedule", "cancel"])
    def test_rebuild_drops_dead_staged_entries(self, engine, kill):
        # A batch only holds a dead entry when a handle staged in it is
        # re-timed or cancelled before the flush; each way counts it.
        order = []
        heaped = engine.schedule(0.75, order.append, "heaped")
        engine.stage(9.5, order.append, "first")
        engine.flush()  # "heaped" now predates the batch below
        batch = [engine.stage(1.0 + i, order.append, i) for i in range(9)]
        h = batch[4]
        if kill == "restage-twice":
            engine.restage(h, 0.5)
            engine.restage(h, 0.25)
            # the second re-timing of an already staged handle: its
            # first two staged entries are dead
            engine.restage(heaped, 0.1)  # its dead entry is in the heap
            expected_dead = 2
        elif kill == "reschedule":
            engine.reschedule(h, 0.5)  # pushed at once; the staged entry dies
            expected_dead = 1
        else:
            h.cancel()
            expected_dead = 1
        dead = sum(e[1] != e[2].seq for e in engine._staged)
        assert engine._staged_dead == dead == expected_dead
        engine.flush()
        assert all(e[1] == e[2].seq for e in engine._batch)
        # only "heaped"'s first entry, in the singles heap, may be dead
        dead_singles = sum(e[1] != e[2].seq for e in engine._singles)
        assert engine._n_cancelled == dead_singles == (kill == "restage-twice")
        assert engine.pending_count() == len(_entries(engine)) - dead_singles
        engine.run()
        expected = [0, 1, 2, 3, 5, 6, 7, 8, "first"]
        if kill == "restage-twice":
            expected = ["heaped", 4] + expected
        elif kill == "reschedule":
            expected = [4, "heaped"] + expected
        else:
            expected = ["heaped"] + expected
        assert order == expected

    def test_live_batch_is_not_counted_dead(self, engine):
        old = [engine.stage(5.0 + i, lambda: None) for i in range(8)]
        engine.flush()
        for h in old:
            engine.restage(h, 1.0 + h.time)  # dead entries are in the heap
        engine.stage(2.0, lambda: None)
        assert engine._staged_dead == 0
        engine.flush()
        assert engine._n_cancelled == 0
        assert len(engine._batch) == engine.pending_count() == 9

    def test_restage_rejects_finished_handles_and_bad_times(self, engine):
        ran = engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.restage(ran, 2.0)
        h = engine.schedule(3.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.restage(h, 0.5)
        with pytest.raises(SimulationError):
            engine.stage(float("inf"), lambda: None)
        assert engine.restage(h, 1.0 - 1e-15).time == 1.0  # round-off clamps
        engine.flush()
        assert engine.pending_count() == 1


class TestTwoHeaps:
    """Staged entries live in the batch heap, everything else in the
    singles heap; the run loop pops the smaller ``(time, seq)`` top."""

    def test_schedule_ties_a_staged_entry(self, engine):
        order = []
        engine.stage(1.0, order.append, "staged-first")
        engine.flush()
        engine.schedule(1.0, order.append, "single-second")
        engine.schedule(2.0, order.append, "single-first")
        engine.stage(2.0, order.append, "staged-second")
        engine.flush()
        assert [e[0] for e in engine._singles] == [1.0, 2.0]
        assert [e[0] for e in engine._batch] == [1.0, 2.0]
        engine.run()
        assert order == ["staged-first", "single-second", "single-first", "staged-second"]

    @pytest.mark.parametrize("flushed", [True, False], ids=["flushed", "unflushed"])
    def test_reschedule_moves_a_staged_handle_to_singles(self, engine, flushed):
        order = []
        h = engine.stage(3.0, order.append, "moved")
        other = engine.stage(2.0, order.append, "other")
        if flushed:
            engine.flush()
        engine.reschedule(h, 1.0)
        assert [e[1] for e in engine._singles] == [h.seq]
        assert engine.pending_count() == 2
        engine.flush()
        assert engine.next_event_time() == 1.0
        assert engine.pending_count() == 2
        engine.restage(h, 4.0)  # and back: the singles entry dies
        engine.flush()
        assert engine._n_cancelled == sum(e[1] != e[2].seq for e in _entries(engine))
        assert engine.next_event_time() == other.time
        engine.run()
        assert order == ["other", "moved"]
        assert engine.now == 4.0 and engine.pending_count() == 0

    def test_run_until_leaves_both_heaps_past_until(self, engine):
        order = []
        engine.schedule(1.0, order.append, "a")
        for i, t in enumerate((3.0, 3.0, 4.0)):
            engine.stage(t, order.append, f"staged{i}")
        engine.flush()
        engine.schedule(3.0, order.append, "single")
        engine.run(until=2.5)
        assert order == ["a"] and engine.now == 2.5
        assert len(engine._singles) == 1 and len(engine._batch) == 3
        assert engine.pending_count() == 4 and engine.next_event_time() == 3.0
        engine.run(until=3.0)  # an event exactly at `until` runs
        assert order == ["a", "staged0", "staged1", "single"]
        assert engine.pending_count() == 1 and engine.now == 3.0
        engine.run()
        assert order[-1] == "staged2" and engine.now == 4.0

    def test_next_event_time_sees_unflushed_entries(self, engine):
        engine.schedule(2.0, lambda: None)
        engine.stage(3.0, lambda: None)
        engine.flush()
        h = engine.stage(1.0, lambda: None)  # earlier than every heap entry
        assert engine.next_event_time() == 1.0 and engine.pending_count() == 3
        engine.restage(h, 0.5)
        assert engine.next_event_time() == 0.5 and engine.pending_count() == 3
        engine.restage(h, 5.0)  # both staged entries before it are dead
        assert engine.next_event_time() == 2.0 and engine.pending_count() == 3
        engine.flush()
        assert engine.next_event_time() == 2.0 and engine.pending_count() == 3

    def test_stop_from_a_callback_between_heaps(self, engine):
        order = []

        def stop(tag):
            order.append(tag)
            engine.stop()

        engine.stage(1.0, order.append, "staged")
        engine.stage(1.0, stop, "staged-stop")
        engine.flush()
        engine.schedule(1.0, order.append, "single")  # same instant, later seq
        engine.run(until=5.0)
        assert order == ["staged", "staged-stop"]
        assert engine.now == 1.0  # a stopped run does not advance to `until`
        assert engine.pending_count() == 1
        engine.run()
        assert order[-1] == "single"


_OPS = st.lists(
    st.one_of(
        # (kind, events, delay step, first pending handle)
        st.tuples(st.sampled_from(["schedule", "stage", "stop"]), st.integers(1, 40),
                  st.integers(0, 3), st.just(0)),
        st.tuples(st.sampled_from(["reschedule", "restage", "cancel", "tie"]), st.integers(1, 40),
                  st.integers(0, 3), st.integers(0, 1000)),
        st.tuples(st.sampled_from(["flush", "run"]), st.just(0), st.integers(0, 3), st.just(0)),
    ),
    max_size=60,
)


class _Reference:
    """The naive engine: a dict of live ``(time, seq)`` entries, popped
    by sorting.  Staged entries count from the call, flushed or not."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = {}  # tag -> (time, seq)
        self.pops = []

    def push(self, tag, time):
        self.live[tag] = (max(time, self.now), self.seq)
        self.seq += 1

    def next_event_time(self):
        return min((t for t, _ in self.live.values()), default=None)

    def run(self, stoppers, until=None):
        for tag, (t, seq) in sorted(self.live.items(), key=lambda kv: kv[1]):
            if until is not None and t > until:
                break
            del self.live[tag]
            self.now = t
            self.pops.append((t, seq, tag))
            if tag in stoppers:
                return
        if until is not None and self.now < until:
            self.now = until


def _replay(ops, staged):
    """Drive one engine through ``ops``; without ``staged`` the staged
    calls become their one-at-a-time forms.  Checks the engine against
    :class:`_Reference` after every op; returns the pops as ``(time,
    seq, tag)``, the live count at each flush and the final pending
    count."""
    engine = Engine()
    ref = _Reference()
    pops, counts = [], []
    handles, stoppers = {}, set()

    def fire(tag):
        pops.append((engine.now, handles[tag].seq, tag))
        if tag in stoppers:
            engine.stop()

    def check():
        assert engine.pending_count() == len(ref.live)
        assert engine.next_event_time() == ref.next_event_time()

    def flush():
        if staged:
            engine.flush()
        check()
        counts.append(len(ref.live))

    def run(until=None):
        engine.run(until=until)
        ref.run(stoppers, until)
        assert pops == ref.pops and engine.now == ref.now
        check()

    for kind, n, step, first in ops:
        # quarter steps from now: plenty of ties, all exact in binary
        times = [engine.now + step * 0.5 + (i % 4) * 0.25 for i in range(n)]
        if kind in ("schedule", "stage", "stop"):
            add = engine.stage if kind == "stage" and staged else engine.schedule
            for time in times:
                tag = len(handles)
                if kind == "stop":
                    stoppers.add(tag)
                handles[tag] = add(time, fire, tag)
                ref.push(tag, time)
        elif kind in ("reschedule", "restage", "cancel", "tie"):
            move = engine.restage if kind == "restage" and staged else engine.reschedule
            for time in times:
                if not ref.live:
                    break
                pending = list(ref.live)
                tag = pending[first % len(pending)]
                first += 7
                if kind == "cancel":
                    handles[tag].cancel()
                    del ref.live[tag]
                elif kind == "tie":
                    # a plain schedule at exactly a pending (maybe staged) time
                    new = len(handles)
                    handles[new] = engine.schedule(ref.live[tag][0], fire, new)
                    ref.push(new, ref.live[tag][0])
                else:
                    move(handles[tag], time)
                    ref.push(tag, time)
        else:
            flush()
            if kind == "run":
                run(until=engine.now + step * 0.5)
        check()
    flush()
    for _ in range(len(stoppers) + 1):
        run()
    return pops, counts, engine.pending_count()


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_staged_engine_pops_like_one_at_a_time_calls(ops):
    staged = _replay(ops, staged=True)
    plain = _replay(ops, staged=False)
    assert staged == plain
    assert staged[2] == 0
