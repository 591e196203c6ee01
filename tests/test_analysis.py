"""Unit tests for the trace-analytics layer."""

import pytest

from repro.analysis import (
    busiest_window,
    noise_timeline,
    profile_delta,
    source_breakdown,
    top_sources,
)
from repro.core.events import EventType
from repro.core.profile import build_profile
from repro.core.trace import Trace


def make_trace():
    records = [
        (0, int(EventType.IRQ), "timer", 0.10, 10e-6),
        (0, int(EventType.IRQ), "timer", 0.20, 10e-6),
        (1, int(EventType.THREAD), "kworker", 0.30, 100e-6),
        (2, int(EventType.THREAD), "snapd", 0.50, 50e-3),
        (3, int(EventType.THREAD), "snapd", 0.52, 30e-3),
    ]
    return Trace.from_records(records, exec_time=1.0)


class TestBreakdown:
    def test_sorted_by_total_time(self):
        rows = source_breakdown(make_trace())
        assert rows[0].source == "snapd"
        totals = [r.total_time for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_shares_sum_to_one(self):
        rows = source_breakdown(make_trace())
        assert sum(r.share_of_noise for r in rows) == pytest.approx(1.0)

    def test_counts_and_spread(self):
        rows = {r.source: r for r in source_breakdown(make_trace())}
        assert rows["timer"].count == 2
        assert rows["timer"].cpu_spread == 1
        assert rows["snapd"].cpu_spread == 2

    def test_etype_attribution(self):
        rows = {r.source: r for r in source_breakdown(make_trace())}
        assert rows["timer"].etype is EventType.IRQ
        assert rows["snapd"].etype is EventType.THREAD

    def test_empty_trace(self):
        t = Trace.from_records([], 1.0)
        assert source_breakdown(t) == []

    def test_top_sources_limits(self):
        assert len(top_sources(make_trace(), 2)) == 2
        with pytest.raises(ValueError):
            top_sources(make_trace(), 0)

    def test_str_render(self):
        assert "snapd" in str(source_breakdown(make_trace())[0])


class TestTimeline:
    def test_bins_cover_execution(self):
        edges, noise = noise_timeline(make_trace(), bins=10)
        assert len(edges) == 11
        assert len(noise) == 10
        assert edges[0] == 0.0 and edges[-1] == pytest.approx(1.0)

    def test_total_conserved(self):
        t = make_trace()
        _, noise = noise_timeline(t, bins=7)
        assert noise.sum() == pytest.approx(t.total_noise_time())

    def test_burst_lands_in_right_bin(self):
        _, noise = noise_timeline(make_trace(), bins=10)
        assert noise.argmax() == 5  # snapd events at 0.50-0.52

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            noise_timeline(make_trace(), bins=0)

    def test_empty_trace(self):
        edges, noise = noise_timeline(Trace.from_records([], 1.0), bins=4)
        assert noise.sum() == 0.0


class TestBusiestWindow:
    def test_finds_the_burst(self):
        start, noise = busiest_window(make_trace(), width=0.1)
        assert start == pytest.approx(0.50)
        assert noise == pytest.approx(80e-3)

    def test_wide_window_captures_everything(self):
        t = make_trace()
        _, noise = busiest_window(t, width=2.0)
        assert noise == pytest.approx(t.total_noise_time())

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            busiest_window(make_trace(), width=0.0)

    def test_empty_trace(self):
        assert busiest_window(Trace.from_records([], 1.0), 0.1) == (0.0, 0.0)


class TestProfileDelta:
    def _profiles(self):
        a = build_profile(
            [
                Trace.from_records(
                    [
                        (0, 2, "Xorg", 0.1, 1e-4),
                        (0, 2, "kworker", 0.2, 1e-4),
                    ],
                    1.0,
                )
            ]
        )
        b = build_profile(
            [Trace.from_records([(0, 2, "kworker", 0.2, 2e-4)], 1.0)]
        )
        return a, b

    def test_vanished_source_reported(self):
        a, b = self._profiles()
        deltas = {d.source: d for d in profile_delta(a, b)}
        assert deltas["Xorg"].rate_b == 0.0

    def test_new_source_is_inf(self):
        a, b = self._profiles()
        deltas = {d.source: d for d in profile_delta(b, a)}
        assert deltas["Xorg"].rate_a == 0.0
        assert deltas["Xorg"].rate_b > 0.0

    def test_load_computation(self):
        a, b = self._profiles()
        deltas = {d.source: d for d in profile_delta(a, b)}
        kw = deltas["kworker"]
        assert kw.load_a == pytest.approx(1e-4)
        assert kw.load_b == pytest.approx(2e-4)

    def test_sorted_by_load_change(self):
        a, b = self._profiles()
        deltas = profile_delta(a, b)
        changes = [abs(d.load_b - d.load_a) for d in deltas]
        assert changes == sorted(changes, reverse=True)
