"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventType
from repro.core.merge import MergeStrategy, RawEvent, merge_events
from repro.core.profile import build_profile
from repro.core.refine import refine_worst_case
from repro.core.trace import Trace
from repro.runtimes.base import split_static
from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.scheduler import Scheduler
from repro.sim.task import Task

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
event_record = st.tuples(
    st.integers(min_value=0, max_value=15),                       # cpu
    st.sampled_from([0, 1, 2]),                                   # etype
    st.sampled_from(["local_timer:236", "RCU:9", "kworker/3:1", "snapd", "Xorg"]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),     # start
    st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False),   # duration
)

trace_strategy = st.lists(event_record, min_size=0, max_size=60).map(
    lambda recs: Trace.from_records(recs, exec_time=1.0 + max((r[3] for r in recs), default=0.0))
)

raw_events = st.lists(
    st.builds(
        RawEvent,
        start=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        duration=st.floats(min_value=1e-9, max_value=0.2, allow_nan=False),
        etype=st.sampled_from(list(EventType)),
        source=st.sampled_from(["a", "b", "c"]),
    ),
    min_size=0,
    max_size=40,
)


# ----------------------------------------------------------------------
# trace invariants
# ----------------------------------------------------------------------
class TestTraceProperties:
    @given(trace_strategy)
    def test_events_always_sorted(self, trace):
        assert (np.diff(trace.starts) >= 0).all()

    @given(trace_strategy)
    def test_json_roundtrip_preserves_everything(self, trace):
        back = Trace.from_json(trace.to_json())
        assert back.n_events == trace.n_events
        np.testing.assert_allclose(back.starts, trace.starts)
        np.testing.assert_allclose(back.durations, trace.durations)
        assert [back.sources[i] for i in back.source_ids] == [
            trace.sources[i] for i in trace.source_ids
        ]


# ----------------------------------------------------------------------
# refinement invariants
# ----------------------------------------------------------------------
class TestRefinementProperties:
    @given(st.lists(trace_strategy, min_size=2, max_size=6))
    @settings(deadline=None)
    def test_refinement_never_amplifies(self, traces):
        profile = build_profile(traces)
        worst = max(traces, key=lambda t: t.exec_time)
        refined = refine_worst_case(worst, profile)
        assert refined.n_events <= worst.n_events
        assert refined.total_noise_time() <= worst.total_noise_time() + 1e-12
        if refined.n_events:
            assert (refined.durations > 0).all()

    @given(st.lists(trace_strategy, min_size=2, max_size=6))
    @settings(deadline=None)
    def test_refined_events_subset_of_worst_cpus(self, traces):
        profile = build_profile(traces)
        worst = max(traces, key=lambda t: t.exec_time)
        refined = refine_worst_case(worst, profile)
        assert set(refined.cpus.tolist()) <= set(worst.cpus.tolist())


# ----------------------------------------------------------------------
# merge invariants
# ----------------------------------------------------------------------
class TestMergeProperties:
    @given(raw_events, st.sampled_from(list(MergeStrategy)))
    def test_output_sorted_and_no_fewer_than_one(self, events, strategy):
        merged = merge_events(events, strategy)
        starts = [e.start for e in merged]
        assert starts == sorted(starts)
        assert len(merged) <= len(events)
        if events:
            assert len(merged) >= 1

    @given(raw_events)
    def test_improved_conserves_busy_time(self, events):
        merged = merge_events(events, MergeStrategy.IMPROVED)
        assert sum(e.duration for e in merged) == np.float64(
            sum(e.duration for e in events)
        ) or abs(sum(e.duration for e in merged) - sum(e.duration for e in events)) < 1e-12

    @given(raw_events)
    def test_improved_never_mixes_classes(self, events):
        merged = merge_events(events, MergeStrategy.IMPROVED)
        for e in merged:
            assert "+" not in e.source or e.etype in (
                EventType.IRQ,
                EventType.SOFTIRQ,
                EventType.THREAD,
            )

    @given(raw_events)
    def test_naive_envelope_covers_inputs(self, events):
        merged = merge_events(events, MergeStrategy.NAIVE)
        if not events:
            return
        assert min(e.start for e in merged) == min(e.start for e in events)
        # naive output never overlaps within itself
        for a, b in zip(merged, merged[1:]):
            assert b.start >= a.end - 1e-12


# ----------------------------------------------------------------------
# runtime partitioning invariants
# ----------------------------------------------------------------------
class TestSplitProperties:
    @given(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.0, max_value=0.99, allow_nan=False),
    )
    def test_shares_sum_and_stay_positive(self, total, n, imbalance):
        shares = split_static(total, n, imbalance)
        assert len(shares) == n
        assert abs(sum(shares) - total) < 1e-9 * max(1.0, total)
        assert all(s >= 0 for s in shares)

    @given(
        st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
        st.integers(min_value=2, max_value=32),
        st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    )
    def test_spread_bounded_by_imbalance(self, total, n, imbalance):
        shares = split_static(total, n, imbalance)
        base = total / n
        for s in shares:
            assert base * (1 - imbalance) - 1e-12 <= s <= base * (1 + imbalance) + 1e-12


# ----------------------------------------------------------------------
# scheduler conservation
# ----------------------------------------------------------------------
class TestSchedulerProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=1.0, allow_nan=False),  # work
                st.integers(min_value=0, max_value=3),                      # cpu
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(deadline=None, max_examples=40)
    def test_work_is_conserved(self, jobs):
        """Total CPU time consumed equals total work submitted."""
        engine = Engine()
        sched = Scheduler(engine, Topology(n_physical=4))
        finished = []
        tasks = []
        for i, (work, cpu) in enumerate(jobs):
            t = Task(f"t{i}", work=work, affinity=frozenset({cpu}), pinned=True)
            t.on_complete = lambda task: finished.append(task)
            tasks.append(t)
            sched.submit(t, cpu=cpu)
        engine.run()
        assert len(finished) == len(jobs)
        total_in = sum(w for w, _ in jobs)
        total_out = sum(t.total_cpu_time for t in tasks)
        assert abs(total_in - total_out) < 1e-9 * max(1.0, total_in)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(deadline=None, max_examples=40)
    def test_makespan_bounds(self, works):
        """Elapsed time is between max(work) and sum(work) on one CPU."""
        engine = Engine()
        sched = Scheduler(engine, Topology(n_physical=1))
        for i, w in enumerate(works):
            sched.submit(Task(f"t{i}", work=w, affinity=frozenset({0}), pinned=True), cpu=0)
        end = engine.run()
        assert end >= max(works) - 1e-9
        assert end <= sum(works) + 1e-9

    @given(st.floats(min_value=1.0, max_value=500.0), st.integers(min_value=1, max_value=6))
    @settings(deadline=None, max_examples=30)
    def test_memory_scale_in_unit_interval(self, bandwidth, n_tasks):
        mem = MemorySystem(bandwidth)
        for demand in np.linspace(0, 4 * bandwidth, 10):
            scale = mem.scale_for(float(demand) * n_tasks)
            assert 0.0 < scale <= 1.0
