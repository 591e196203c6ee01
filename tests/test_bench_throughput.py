"""The perf-smoke gate of ``tools/bench_throughput.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_throughput.py"
_spec = importlib.util.spec_from_file_location("bench_throughput", _PATH)
bench_throughput = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_throughput)


def _record(normalized_rps=0.6, events=146296):
    return {
        "scenario": "sim-bound",
        "normalized_rps": normalized_rps,
        "reps_per_sec": 10 * normalized_rps,
        "calibration_mops": 10.0,
        "telemetry": {"engine": {"runs": 12, "events_executed": events}},
    }


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "bench_sim.json"
    path.write_text(json.dumps(_record()))
    return path


def test_same_throughput_and_events_pass(baseline):
    assert bench_throughput.check_against(baseline, _record(), 0.2) == 0


def test_throughput_regression_fails(baseline):
    assert bench_throughput.check_against(baseline, _record(normalized_rps=0.4), 0.2) == 1


@pytest.mark.parametrize("events", [146295, 146297])
def test_any_event_count_change_fails(baseline, events):
    # faster is no excuse: the count must match exactly
    assert bench_throughput.check_against(baseline, _record(0.9, events), 0.2) == 1


def test_baseline_without_telemetry_gates_throughput_only(tmp_path):
    path = tmp_path / "old.json"
    old = _record()
    del old["telemetry"]
    path.write_text(json.dumps(old))
    assert bench_throughput.check_against(path, _record(events=1), 0.2) == 0
