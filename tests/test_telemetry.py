"""Telemetry layer tests: spans, counters, exporters, and bit-identity.

The contract under test has two halves.  Observability: spans nest and
keep parent linkage across threads *and* process-pool workers, counters
merge back from worker buffers, and every exporter produces its
documented format.  Non-interference: with telemetry disabled nothing
is allocated or recorded, and with telemetry enabled simulation results
stay bit-identical — enforced here against the golden fixtures and a
chaos-disturbed run.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.harness.cache import ResultCache
from repro.harness.executor import ParallelExecutor, SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.faults import FaultPolicy
from tests.golden_cases import FIXTURE_PATH, build_cases, run_case

_FIXTURES = Path(__file__).resolve().parent.parent / FIXTURE_PATH


def spec(**kw):
    defaults = dict(
        platform="intel-9700kf", workload="schedbench", reps=4, seed=42,
        workload_params={"repeats": 2},
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


@pytest.fixture(autouse=True)
def _isolated_telemetry(monkeypatch):
    """Every test starts disabled with empty buffers and leaves no trace."""
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    telemetry.configure(enabled=False)
    telemetry.reset()
    yield
    telemetry.configure(enabled=False)
    telemetry.reset()


# ----------------------------------------------------------------------
# enablement and the disabled-mode no-op contract
# ----------------------------------------------------------------------
class TestEnablement:
    def test_disabled_by_default_and_null_span_is_shared(self):
        assert not telemetry.enabled()
        s1 = telemetry.span("anything", key="value")
        s2 = telemetry.span("else")
        assert s1 is s2  # one singleton: no per-call allocation

    def test_disabled_mode_records_nothing(self):
        with telemetry.span("rep", rep=1):
            with telemetry.span("inner"):
                pass
        group = telemetry.new_group("test")
        group.inc("counted")
        assert telemetry.events_snapshot() == []
        # counters stay live regardless (they back stats() views)
        assert group.get("counted") == 1

    def test_env_directive_semantics(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        assert telemetry.refresh_from_env() is False
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry.refresh_from_env() is True
        assert telemetry.telemetry_dir() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "/tmp/somewhere")
        assert telemetry.refresh_from_env() is True
        assert telemetry.telemetry_dir() == Path("/tmp/somewhere")
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert telemetry.refresh_from_env() is False

    def test_disabled_experiment_emits_no_events(self):
        run_experiment(spec(), executor=SerialExecutor())
        assert telemetry.events_snapshot() == []


# ----------------------------------------------------------------------
# span recording and parentage
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_records_parent_linkage(self):
        telemetry.configure(enabled=True)
        with telemetry.span("outer") as outer:
            with telemetry.span("middle") as middle:
                with telemetry.span("inner", tag="x"):
                    pass
        events = {e["name"]: e for e in telemetry.events_snapshot()}
        assert set(events) == {"outer", "middle", "inner"}
        assert events["outer"]["parent"] is None
        assert events["middle"]["parent"] == outer.id
        assert events["inner"]["parent"] == middle.id
        assert events["inner"]["args"] == {"tag": "x"}
        for e in events.values():
            assert e["dur"] >= 0.0 and isinstance(e["pid"], int)

    def test_exception_tags_span_as_error(self):
        telemetry.configure(enabled=True)
        with pytest.raises(ValueError):
            with telemetry.span("failing"):
                raise ValueError("boom")
        (event,) = telemetry.events_snapshot()
        assert event["error"] == "ValueError"

    def test_base_parent_bridges_stackless_threads(self):
        telemetry.configure(enabled=True)
        telemetry.set_base_parent("12345-1")
        assert telemetry.current_span_id() == "12345-1"
        with telemetry.span("child") as child:
            assert child.parent == "12345-1"
        telemetry.set_base_parent(None)
        assert telemetry.current_span_id() is None

    def test_span_ids_embed_pid(self):
        import os

        telemetry.configure(enabled=True)
        with telemetry.span("x") as s:
            assert s.id.startswith(f"{os.getpid()}-")


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_groups_aggregate_by_namespace(self):
        a = telemetry.new_group("demo")
        b = telemetry.new_group("demo")
        a.inc("n", 2)
        b.inc("n", 3)
        b.set("gauge", 7)
        snap = telemetry.counters_snapshot()
        assert snap["demo"]["n"] == 5
        assert snap["demo"]["gauge"] == 7

    def test_shared_group_is_singleton(self):
        assert telemetry.get_group("engine") is telemetry.get_group("engine")

    def test_worker_capture_diffs_preexisting_counts(self):
        # Simulates a forked worker: counters inherited non-zero must
        # not be re-flushed to the parent.
        group = telemetry.get_group("capture-test")
        group.inc("inherited", 10)
        token = telemetry.worker_capture_begin("parent-id")
        group.inc("fresh", 2)
        group.inc("inherited")  # 10 -> 11: only the delta of 1 ships
        blob = telemetry.worker_capture_end(token)
        assert blob["counters"]["capture-test"] == {"fresh": 2, "inherited": 1}
        assert blob["events"] == []

    def test_worker_capture_sets_inherited_spans_aside(self):
        """A worker forked while the parent had spans open inherits that
        stack; the capture's spans parent to the dispatching span it was
        given instead, and the stack is back when the capture ends."""
        telemetry.configure(enabled=True)
        with telemetry.span("open-at-fork") as outer:
            token = telemetry.worker_capture_begin("dispatcher")
            with telemetry.span("chunk"):
                pass
            blob = telemetry.worker_capture_end(token)
            assert telemetry.current_span_id() == outer.id
        [chunk] = blob["events"]
        assert chunk["parent"] == "dispatcher"

    def test_absorb_worker_merges_into_shared_groups(self):
        telemetry.absorb_worker(
            {"events": [{"type": "span", "name": "w"}], "counters": {"eng": {"runs": 3}}}
        )
        assert telemetry.get_group("eng").get("runs") == 3
        assert telemetry.events_snapshot() == [{"type": "span", "name": "w"}]
        telemetry.absorb_worker(None)  # tolerated: failed chunks ship nothing


# ----------------------------------------------------------------------
# stats() regression: the old shapes are now thin registry views
# ----------------------------------------------------------------------
class TestStatsShapes:
    def test_serial_executor_stats_shape(self):
        ex = SerialExecutor()
        assert ex.stats() == {"rep_retries": 0, "rep_failures": 0}

    def test_parallel_executor_stats_shape(self):
        ex = ParallelExecutor(jobs=2)
        assert ex.stats() == {
            "pool_rebuilds": 0,
            "chunk_timeouts": 0,
            "chunk_redispatches": 0,
            "rep_retries": 0,
            "rep_failures": 0,
            "shm_chunks": 0,
            "pickle_chunks": 0,
            "degraded": False,
        }

    def test_cache_stats_shape_and_attributes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cache = ResultCache(root=tmp_path / "c")
        assert cache.stats() == {
            "hits": 0, "misses": 0, "corrupt": 0, "stale": 0, "partial": 0,
            "integrity_quarantined": 0,
        }
        rs1 = cache.get_or_run(spec(), executor=SerialExecutor())
        rs2 = cache.get_or_run(spec(), executor=SerialExecutor())
        assert np.array_equal(rs1.times, rs2.times)
        assert cache.stats() == {
            "hits": 1, "misses": 1, "corrupt": 0, "stale": 0, "partial": 0,
            "integrity_quarantined": 0,
        }

    def test_executor_counters_surface_in_global_snapshot(self):
        failures = {"count": 0}

        class Flaky(Exception):
            pass

        ex = SerialExecutor()
        policy = FaultPolicy(on_failure="retry", max_retries=2, backoff_base=0.0)

        import repro.harness.chunkrunner as chunkrunner

        original = chunkrunner._execute_rep

        def flaky(context, sp, noise, index, keep_trace):
            if index == 1 and failures["count"] == 0:
                failures["count"] += 1
                raise Flaky("first attempt of rep 1 fails")
            return original(context, sp, noise, index, keep_trace)

        chunkrunner._execute_rep = flaky
        try:
            list(ex.run_rep_range(spec(), None, range(3), policy=policy))
        finally:
            chunkrunner._execute_rep = original
        assert ex.stats()["rep_retries"] == 1
        assert telemetry.counters_snapshot()["executor"]["rep_retries"] == 1


# ----------------------------------------------------------------------
# cross-worker spans and counter merge
# ----------------------------------------------------------------------
class TestWorkerFlush:
    def test_parallel_run_links_spans_across_processes(self):
        import os

        telemetry.configure(enabled=True)
        ex = ParallelExecutor(jobs=2)
        try:
            rs = run_experiment(spec(reps=6), executor=ex)
        finally:
            ex.close()
        events = telemetry.events_snapshot()
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)
        assert set(by_name) >= {"experiment", "chunk", "rep"}
        (experiment,) = by_name["experiment"]
        chunk_ids = {e["id"] for e in by_name["chunk"]}
        # chunk spans recorded in worker pids parent to the experiment
        worker_chunks = [e for e in by_name["chunk"] if e["pid"] != os.getpid()]
        assert worker_chunks, "expected chunks to run in pool workers"
        for e in by_name["chunk"]:
            assert e["parent"] == experiment["id"]
        for e in by_name["rep"]:
            assert e["parent"] in chunk_ids
        assert len(by_name["rep"]) == 6
        assert len(rs.times) == 6

    def test_parallel_and_serial_results_identical_with_telemetry(self):
        rs_off = run_experiment(spec(), executor=SerialExecutor())
        telemetry.configure(enabled=True)
        rs_serial = run_experiment(spec(), executor=SerialExecutor())
        ex = ParallelExecutor(jobs=2)
        try:
            rs_parallel = run_experiment(spec(), executor=ex)
        finally:
            ex.close()
        assert [t.hex() for t in rs_off.times] == [t.hex() for t in rs_serial.times]
        assert [t.hex() for t in rs_off.times] == [t.hex() for t in rs_parallel.times]

    def test_engine_counters_merge_back_from_workers(self):
        telemetry.configure(enabled=True)
        ex = ParallelExecutor(jobs=2)
        try:
            run_experiment(spec(reps=4), executor=ex)
        finally:
            ex.close()
        engine = telemetry.counters_snapshot()["engine"]
        assert engine["runs"] == 4
        assert engine["events_executed"] > 0


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _sample_events(self):
        telemetry.configure(enabled=True)
        with telemetry.span("experiment", spec="s"):
            with telemetry.span("rep", rep=0):
                pass
        telemetry.get_group("engine").inc("runs", 2)
        return telemetry.events_snapshot(), telemetry.counters_snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        events, counters = self._sample_events()
        path = telemetry.write_events_jsonl(tmp_path / "events.jsonl", events, counters)
        loaded_events, loaded_counters = telemetry.load_events_jsonl(path)
        assert loaded_events == events
        assert loaded_counters["engine"]["runs"] == 2

    def test_jsonl_reader_tolerates_torn_lines(self, tmp_path):
        events, counters = self._sample_events()
        path = telemetry.write_events_jsonl(tmp_path / "events.jsonl", events, counters)
        with open(path, "a") as fh:
            fh.write('{"type": "span", "name": "torn')  # crashed mid-write
        loaded_events, loaded_counters = telemetry.load_events_jsonl(path)
        assert loaded_events == events
        assert loaded_counters["engine"]["runs"] == 2

    def test_chrome_trace_schema(self):
        events, _ = self._sample_events()
        trace = telemetry.chrome_trace(events)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == len(events)
        assert meta and all(e["name"] == "process_name" for e in meta)
        for e in complete:
            # the trace-event schema: name/cat/ph/ts/dur/pid/tid, µs units
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
        # rebased: the earliest span starts at ts 0
        assert min(e["ts"] for e in complete) == 0.0
        json.dumps(trace)  # must be serialisable as-is

    def test_chrome_trace_preserves_parent_links_in_args(self):
        events, _ = self._sample_events()
        trace = telemetry.chrome_trace(events)
        rep = next(e for e in trace["traceEvents"] if e["name"] == "rep")
        exp = next(e for e in trace["traceEvents"] if e["name"] == "experiment")
        assert rep["args"]["parent"] == exp["args"]["id"]

    def test_prometheus_text_format(self):
        _, counters = self._sample_events()
        text = telemetry.prometheus_text(counters)
        assert "# HELP repro_engine_total " in text
        assert "# TYPE repro_engine_total counter" in text
        assert 'repro_engine_total{counter="runs"} 2' in text

    def test_prometheus_text_sanitizes_names_and_labels(self):
        counters = {"my.dotted-ns": {"odd-key.name": 1.5}}
        text = telemetry.prometheus_text(counters)
        assert "# TYPE repro_my_dotted_ns_total counter" in text
        # the counter key survives verbatim as a label, not a name part
        assert 'repro_my_dotted_ns_total{counter="odd-key.name"} 1.5' in text
        # every non-comment line's metric name is scrape-legal
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0]
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", name), name

    def test_prometheus_text_help_registry(self):
        telemetry.set_counter_help("engine", "simulated engine activity")
        try:
            text = telemetry.prometheus_text({"engine": {"runs": 1}})
            assert "# HELP repro_engine_total simulated engine activity" in text
        finally:
            telemetry.set_counter_help(
                "engine", "repro engine counters, one series per counter label"
            )

    def test_summarize_text_renders_span_table(self):
        events, counters = self._sample_events()
        text = telemetry.summarize_text(events, counters)
        assert "experiment" in text and "rep" in text
        assert "engine.runs" in text

    def test_export_all_writes_three_formats(self, tmp_path):
        self._sample_events()
        paths = telemetry.export_all(tmp_path / "telem")
        assert paths["events"].exists()
        assert paths["chrome"].exists()
        assert paths["prometheus"].exists()
        trace = json.loads(paths["chrome"].read_text())
        assert trace["traceEvents"]

    def test_export_all_without_directory_raises(self):
        with pytest.raises(ValueError):
            telemetry.export_all()


# ----------------------------------------------------------------------
# non-interference: golden slice and chaos run, telemetry enabled
# ----------------------------------------------------------------------
def _golden_fixture(name):
    data = json.loads(_FIXTURES.read_text())
    return {c["name"]: c for c in data["cases"]}[name]


_GOLDEN_SLICE = [
    c for c in build_cases()
    if c["name"] in ("intel-schedbench-static", "intel-replay", "amd-composite-stack")
]


class TestNonInterference:
    @pytest.mark.parametrize("case", _GOLDEN_SLICE, ids=lambda c: c["name"])
    def test_golden_slice_bit_identical_with_telemetry(self, case):
        telemetry.configure(enabled=True)
        actual = run_case(case)
        expected = _golden_fixture(case["name"])
        assert actual["reps"] == expected["reps"]
        assert telemetry.events_snapshot(), "telemetry was supposed to be on"

    def test_chaos_run_converges_bit_identically_with_telemetry(self, monkeypatch):
        reference = run_experiment(spec(seed=7), executor=SerialExecutor())
        assert telemetry.events_snapshot() == []
        telemetry.configure(enabled=True)
        monkeypatch.setenv("REPRO_CHAOS", "raise:11:0.6")
        policy = FaultPolicy(on_failure="retry", max_retries=3, backoff_base=0.0)
        disturbed = run_experiment(
            spec(seed=7), executor=SerialExecutor(), policy=policy
        )
        assert [t.hex() for t in disturbed.times] == [t.hex() for t in reference.times]
        chaos_counts = telemetry.counters_snapshot().get("chaos", {})
        assert chaos_counts.get("injected_faults", 0) > 0
        retry_spans = [e for e in telemetry.events_snapshot() if e["name"] == "retry"]
        assert retry_spans, "chaos retries should surface as retry spans"
        errored = [e for e in telemetry.events_snapshot() if e.get("error")]
        assert errored, "the injected failures should tag spans with errors"
