"""Unit tests for the average-noise profile (stage 2's statistics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import EventType
from repro.core.profile import ProfileAccumulator, build_profile
from repro.core.trace import Trace


def trace_with(source, count, duration, exec_time=1.0, etype=EventType.THREAD, cpu=0):
    records = [
        (cpu, int(etype), source, i * exec_time / max(count, 1), duration)
        for i in range(count)
    ]
    return Trace.from_records(records, exec_time)


class TestAccumulation:
    def test_single_source_rate(self):
        profile = build_profile([trace_with("kworker", 10, 1e-4)])
        stats = profile["kworker"]
        assert stats.rate_hz == pytest.approx(10.0)
        assert stats.mean_duration == pytest.approx(1e-4)
        assert stats.total_events == 10

    def test_rate_normalised_by_window(self):
        profile = build_profile([trace_with("k", 10, 1e-4, exec_time=2.0)])
        assert profile["k"].rate_hz == pytest.approx(5.0)

    def test_averages_across_runs(self):
        profile = build_profile(
            [trace_with("k", 10, 1e-4), trace_with("k", 20, 3e-4)]
        )
        stats = profile["k"]
        assert stats.rate_hz == pytest.approx(15.0)
        assert stats.mean_duration == pytest.approx((10 * 1e-4 + 20 * 3e-4) / 30)

    def test_multiple_sources_kept_separate(self):
        t = Trace.from_records(
            [
                (0, int(EventType.IRQ), "timer", 0.1, 1e-6),
                (0, int(EventType.THREAD), "kworker", 0.2, 1e-4),
            ],
            1.0,
        )
        profile = build_profile([t])
        assert set(profile) == {"timer", "kworker"}
        assert profile["timer"].etype is EventType.IRQ
        assert profile["kworker"].etype is EventType.THREAD

    def test_empty_traces_counted_in_window(self):
        profile = build_profile(
            [trace_with("k", 10, 1e-4), trace_with("other", 0, 1e-4)]
        )
        # second run's window halves k's rate
        assert profile["k"].rate_hz == pytest.approx(5.0)

    def test_accumulator_requires_runs(self):
        with pytest.raises(ValueError):
            ProfileAccumulator().build()

    def test_mapping_protocol(self):
        profile = build_profile([trace_with("k", 3, 1e-5)])
        assert len(profile) == 1
        assert "k" in profile
        assert profile.get("missing") is None


class TestExpectedCount:
    def test_scales_with_window(self):
        profile = build_profile([trace_with("k", 10, 1e-4)])
        assert profile["k"].expected_count(1.0) == 10
        assert profile["k"].expected_count(0.5) == 5

    def test_rounding(self):
        profile = build_profile([trace_with("k", 3, 1e-4, exec_time=2.0)])
        # 1.5 Hz * 1.0s -> 2 (round half to even)
        assert profile["k"].expected_count(1.0) == 2

    def test_negative_window_rejected(self):
        profile = build_profile([trace_with("k", 1, 1e-4)])
        with pytest.raises(ValueError):
            profile["k"].expected_count(-1.0)


def add_by_mask(acc: ProfileAccumulator, trace: Trace) -> None:
    """The per-source mask + ``np.unique`` form of :meth:`ProfileAccumulator.add`."""
    acc.n_runs += 1
    acc.total_window += trace.exec_time
    if trace.n_events == 0:
        return
    n_sources = len(trace.sources)
    counts = np.bincount(trace.source_ids, minlength=n_sources)
    sums = np.bincount(trace.source_ids, weights=trace.durations, minlength=n_sources)
    for sid, name in enumerate(trace.sources):
        c = int(counts[sid])
        if c == 0:
            continue
        acc._counts[name] = acc._counts.get(name, 0) + c
        acc._durations[name] = acc._durations.get(name, 0.0) + float(sums[sid])
        etype_hist = acc._etypes.setdefault(name, {})
        mask = trace.source_ids == sid
        for code, n in zip(*np.unique(trace.etypes[mask], return_counts=True)):
            etype_hist[int(code)] = etype_hist.get(int(code), 0) + int(n)


#: one trace: its exec time, a source table (some names may go unused)
#: and ``(cpu, etype, source index, start, duration)`` event rows
_traces = st.integers(1, 6).flatmap(
    lambda n_sources: st.tuples(
        st.floats(0.01, 2.0),
        st.lists(st.sampled_from("abcdefgh"), min_size=n_sources, max_size=n_sources, unique=True),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.sampled_from([int(e) for e in EventType]),
                st.integers(0, n_sources - 1),
                st.floats(0.0, 1.0),
                st.floats(0.0, 1e-3),
            ),
            max_size=40,
        ),
    )
)


def _build_trace(exec_time, sources, rows) -> Trace:
    def column(i, dtype):
        return np.array([row[i] for row in rows], dtype=dtype)

    return Trace(
        column(0, np.int32),
        column(1, np.int8),
        column(2, np.int32),
        column(3, np.float64),
        column(4, np.float64),
        sources,
        exec_time,
    )


class TestJointHistogram:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_traces, min_size=1, max_size=4))
    def test_equals_the_per_source_loop(self, traces):
        """Sources that mix etypes, tie on counts or go unused build
        the same profile, etype dicts in the same order."""
        new, old = ProfileAccumulator(), ProfileAccumulator()
        for exec_time, sources, rows in traces:
            trace = _build_trace(exec_time, sources, rows)
            new.add(trace)
            add_by_mask(old, trace)
        assert [list(h.items()) for h in new._etypes.values()] == [
            list(h.items()) for h in old._etypes.values()
        ]
        assert list(new._etypes) == list(old._etypes)
        if new._counts:
            assert dict(new.build()) == dict(old.build())
