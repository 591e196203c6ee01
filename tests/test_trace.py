"""Unit tests for trace containers and OSnoise-format I/O."""

import numpy as np
import pytest

from repro.core.events import EventType
from repro.core.trace import Trace


def make_trace(records=None, exec_time=1.0):
    if records is None:
        records = [
            (5, int(EventType.IRQ), "local_timer:236", 0.001, 310e-9),
            (10, int(EventType.SOFTIRQ), "RCU:9", 0.002, 140e-9),
            (13, int(EventType.THREAD), "kworker/13:1", 0.003, 3760e-9),
        ]
    return Trace.from_records(records, exec_time)


class TestConstruction:
    def test_from_records(self):
        t = make_trace()
        assert t.n_events == 3
        assert t.exec_time == 1.0

    def test_events_sorted_by_start(self):
        t = make_trace(
            [
                (0, 0, "b", 0.5, 1e-6),
                (0, 0, "a", 0.1, 1e-6),
            ]
        )
        assert list(t.starts) == [0.1, 0.5]

    def test_sources_interned(self):
        t = make_trace(
            [
                (0, 0, "x", 0.1, 1e-6),
                (1, 0, "x", 0.2, 1e-6),
            ]
        )
        assert t.sources == ["x"]
        assert set(t.source_ids) == {0}

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            Trace(
                np.array([0]),
                np.array([0, 1]),
                np.array([0]),
                np.array([0.0]),
                np.array([1e-6]),
                ["s"],
                1.0,
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            make_trace([(0, 0, "x", 0.1, -1e-6)])

    def test_rejects_nonpositive_exec_time(self):
        with pytest.raises(ValueError):
            make_trace(exec_time=0.0)

    @pytest.mark.parametrize("code", [len(EventType), 7, -1])
    def test_rejects_unknown_etype(self, code):
        with pytest.raises(ValueError, match="unknown etype codes"):
            Trace(
                np.array([0, 1], dtype=np.int32),
                np.array([int(EventType.THREAD), code], dtype=np.int8),
                np.array([0, 0], dtype=np.int32),
                np.array([0.1, 0.2]),
                np.array([1e-6, 1e-6]),
                ["s"],
                1.0,
            )

    def test_from_records_rejects_unknown_etype(self):
        with pytest.raises(ValueError, match=r"unknown etype codes: \[3\]"):
            make_trace([(0, 0, "x", 0.1, 1e-6), (0, 3, "y", 0.2, 1e-6)])

    def test_from_dict_rejects_unknown_etype(self):
        data = make_trace().to_dict()
        data["etypes"][1] = len(EventType)
        with pytest.raises(ValueError, match="unknown etype codes"):
            Trace.from_dict(data)

    @pytest.mark.parametrize("sid", [-1, 1, 2**31 - 1])
    def test_rejects_source_id_outside_sources(self, sid):
        with pytest.raises(ValueError, match=rf"source ids outside the 1 sources: \[{sid}\]"):
            Trace(
                np.array([0, 1], dtype=np.int32),
                np.array([0, 0], dtype=np.int8),
                np.array([0, sid], dtype=np.int32),
                np.array([0.1, 0.2]),
                np.array([1e-6, 1e-6]),
                ["s"],
                1.0,
            )

    @pytest.mark.parametrize(
        "column, value, match",
        [
            ("source_ids", -1, "source ids outside"),
            ("source_ids", 3, "source ids outside"),
            ("durations", float("nan"), "non-finite event start or duration"),
            ("durations", float("inf"), "non-finite event start or duration"),
            ("starts", float("nan"), "non-finite event start or duration"),
            ("starts", float("inf"), "non-finite event start or duration"),
        ],
    )
    def test_from_dict_rejects_bad_column(self, column, value, match):
        data = make_trace().to_dict()
        data[column][1] = value
        with pytest.raises(ValueError, match=match):
            Trace.from_dict(data)

    @pytest.mark.parametrize("exec_time", [float("nan"), float("inf")])
    def test_rejects_nonfinite_exec_time(self, exec_time):
        with pytest.raises(ValueError, match="exec_time must be positive and finite"):
            make_trace(exec_time=exec_time)
        data = make_trace().to_dict()
        data["exec_time"] = exec_time
        with pytest.raises(ValueError, match="exec_time"):
            Trace.from_dict(data)

    def test_empty_trace_ok(self):
        t = make_trace([])
        assert t.n_events == 0
        assert t.total_noise_time() == 0.0


class TestQueries:
    def test_total_noise_time(self):
        t = make_trace()
        assert t.total_noise_time() == pytest.approx(310e-9 + 140e-9 + 3760e-9)

    def test_events_of_source(self):
        t = make_trace()
        mask = t.events_of_source("RCU:9")
        assert mask.sum() == 1
        assert t.events_of_source("nothing").sum() == 0

    def test_select_subsets_and_reinterns(self):
        t = make_trace()
        sub = t.select(t.etypes == int(EventType.THREAD))
        assert sub.n_events == 1
        assert sub.sources == ["kworker/13:1"]

    def test_iter_records_roundtrip(self):
        t = make_trace()
        rows = list(t.iter_records())
        assert rows[0][1] is EventType.IRQ
        rebuilt = Trace.from_records(
            [(c, int(e), s, st, d) for c, e, s, st, d in rows], t.exec_time
        )
        assert rebuilt.n_events == t.n_events


class TestOsnoiseText:
    def test_render_matches_figure3_layout(self):
        text = make_trace().to_osnoise_text()
        assert "irq_noise" in text
        assert "local_timer:236" in text
        assert text.splitlines()[0].startswith("CPU")

    def test_limit(self):
        text = make_trace().to_osnoise_text(limit=1)
        assert len(text.splitlines()) == 2

class TestJson:
    def test_roundtrip(self):
        t = make_trace()
        t.meta["anomaly"] = "snapd"
        back = Trace.from_json(t.to_json())
        assert back.n_events == t.n_events
        assert back.meta["anomaly"] == "snapd"
        np.testing.assert_allclose(back.durations, t.durations)
