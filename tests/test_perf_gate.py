"""The perf-smoke gate of ``tools/perf_gate.py``, on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

EVENTS = 12191.333333333334


def _run(workload="sim-minife", seed=2025, reps_per_s=11.0, events=EVENTS,
         failed=0, untraced=True, traced=True):
    """One ``bench run --out`` record of one workload."""
    record = {"attempted": 6, "failed": failed, "failures": ["digest mismatch"] * failed}
    if untraced:
        record["e2e"] = {"reps_per_s": {"unit": "reps/s", "median": reps_per_s,
                                        "q1": reps_per_s, "q3": reps_per_s, "n": 8}}
    if traced:
        record["layers"] = {name: {"unit": "count", "value": 100.0}
                            for name in perf_gate.EXACT_LAYERS}
        record["layers"]["sim.engine.events_per_rep"]["value"] = events
    return {"schema": 1, "seed": seed, "workloads": {workload: record}}


def _fails(record, baseline=None):
    return perf_gate.check([baseline or _run()], [record])


def test_same_throughput_and_counts_pass():
    assert _fails(_run()) == []


def test_throughput_regression_fails():
    (reason,) = _fails(_run(reps_per_s=0.75 * 11.0))
    assert "reps_per_s fell 25.0%" in reason


@pytest.mark.parametrize("delta", [-1, 1])
def test_any_event_count_change_fails(delta):
    # faster is no excuse: the count must match exactly
    (reason,) = _fails(_run(reps_per_s=20.0, events=EVENTS + delta))
    assert "sim.engine.events_per_rep" in reason


def test_baseline_without_traced_pass_gates_throughput_only():
    baseline = _run(workload="sweep-pool2", traced=False)
    assert _fails(_run(workload="sweep-pool2", events=1.0), baseline) == []
    assert _fails(_run(workload="sweep-pool2", traced=False), baseline) == []
    assert len(_fails(_run(workload="sweep-pool2", reps_per_s=5.0), baseline)) == 1


def test_failed_operation_fails():
    (reason,) = _fails(_run(failed=1))
    assert "1 failed operation(s)" in reason


def test_seed_mismatch_fails():
    (reason,) = _fails(_run(seed=7))
    assert "seed 7 != baseline seed 2025" in reason


def test_missing_workload_fails():
    (reason,) = _fails(_run(workload="sweep-pool2"))
    assert reason == "sim-minife: no record of this baseline workload"


def test_traced_baseline_against_untraced_record_fails():
    fails = _fails(_run(traced=False))
    assert len(fails) == len(perf_gate.EXACT_LAYERS)
    assert all("!= baseline" in reason for reason in fails)


def test_untraced_baseline_against_traced_only_record_fails():
    (reason,) = _fails(_run(untraced=False))
    assert "no untraced pass" in reason


def test_command_line_exit_codes(tmp_path, capsys):
    base, runs = tmp_path / "baseline", tmp_path / "runs"
    base.mkdir()
    runs.mkdir()
    (base / "sim-minife.json").write_text(json.dumps(_run()))
    (base / "sweep-pool2.json").write_text(json.dumps(_run(workload="sweep-pool2", traced=False)))
    (runs / "sim-minife.json").write_text(json.dumps(_run()))
    (runs / "sweep-pool2.json").write_text(json.dumps(_run(workload="sweep-pool2", traced=False)))
    records = sorted(str(p) for p in runs.glob("*.json"))
    assert perf_gate.main([str(base), *records]) == 0
    assert "perf gate: passed" in capsys.readouterr().out
    assert perf_gate.main([str(base), records[0]]) == 1
    assert "sweep-pool2: no record" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        perf_gate.main([str(runs / "empty"), *records])
