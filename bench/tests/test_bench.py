"""Tests of the repository benchmark (``pytest bench/tests``).

Not part of the tier-1 suite: the module fixture runs every workload
with ``--quick`` twice, which takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.layers import EXACT_LAYERS, LAYER_UNITS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd=ROOT, timeout: float = 900) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Two quick runs of every workload, both passes, as run records."""
    out = []
    for name in ("a", "b"):
        path = tmp_path_factory.mktemp("runs") / f"{name}.json"
        proc = bench("run", "--quick", "--out", str(path))
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((json.loads(path.read_text()), line))
    return out


def test_benchmark_json_matches_the_code():
    from bench.workloads import E2E_UNITS

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert set(WORKLOADS) == set(json.loads((ROOT / "bench" / "expected_digests.json")
                                            .read_text())["digests"])


def test_metric_names_and_units(records):
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for record, line in records:
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        for workload in WORKLOADS:
            got = record["workloads"][workload]
            assert {k: v["unit"] for k, v in got["e2e"].items()} == e2e
            assert {k: v["unit"] for k, v in got["layers"].items()} == layers
            assert all(v["median"] > 0 for v in got["e2e"].values())
            for metric, unit in {**e2e, **layers}.items():
                assert line["metrics"][f"{workload}.{metric}"]["unit"] == unit


def test_traced_counts_repeat_exactly(records):
    (a, _), (b, _) = records
    for workload in WORKLOADS:
        la, lb = a["workloads"][workload]["layers"], b["workloads"][workload]["layers"]
        for name in EXACT_LAYERS:
            assert la[name]["value"] == lb[name]["value"], (workload, name)
    sim = a["workloads"]["sim-minife"]["layers"]
    assert sim["sim.scheduler.update_calls_per_rep"]["value"] > 0
    assert sim["sim.engine.events_per_rep"]["value"] > 0
    assert sim["harness.executor.chunks_per_cell"]["value"] == 0
    assert a["workloads"]["sweep-pool2"]["layers"]["harness.executor.chunks_per_cell"]["value"] > 0
    assert a["workloads"]["service-open"]["layers"]["service.queue.events.submit"]["value"] > 0


def test_digests_are_stable(records):
    expected = json.loads((ROOT / "bench" / "expected_digests.json").read_text())
    (a, _), (b, _) = records
    for workload in WORKLOADS:
        assert a["workloads"][workload]["digest"] == b["workloads"][workload]["digest"]
        assert a["workloads"][workload]["digest"] == expected["digests"][workload]


def test_stalled_generator_trips_the_lag_check():
    from bench.service import loadgen_valid, open_loop

    # 300 submits 10 ms apart: the clean loop's p99 is about its 3rd-latest
    # submit, so a scheduling hiccup of a shared host (which also delays
    # the submits due during it) does not trip it; one 50 ms stall makes
    # the 4 submits due during it more than 10 ms late.
    specs = list(range(300))

    def stalling(spec):
        if spec == 149:
            time.sleep(0.05)
        return spec

    _, _, lags = open_loop(stalling, specs, rate=100.0)
    assert not loadgen_valid(lags)
    _, _, lags = open_loop(lambda spec: spec, specs, rate=100.0)
    assert loadgen_valid(lags)


def _run_in_process(capsys, *args: str) -> tuple[int, dict]:
    from bench.__main__ import main

    code = main(["run", "--workload", "sim-minife", "--quick", "--trace", "0", *args])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, line


def test_wrong_expected_digest_fails_the_run(capsys, monkeypatch, tmp_path):
    import bench.__main__ as cli

    wrong = tmp_path / "digests.json"
    data = json.loads(cli.EXPECTED_PATH.read_text())
    data["digests"]["sim-minife"] = "0" * 64
    wrong.write_text(json.dumps(data))
    monkeypatch.setattr(cli, "EXPECTED_PATH", wrong)
    code, line = _run_in_process(capsys)
    assert code == 1 and line["correct"] is False and line["failed"] >= 1


def test_perturbed_result_fails_the_run(capsys, monkeypatch):
    import numpy as np

    from bench import use_checkout_sources

    use_checkout_sources()
    import repro.harness.experiment as experiment

    real = experiment.run_experiment

    def perturbed(spec, *args, **kwargs):
        rs = real(spec, *args, **kwargs)
        rs.times[-1] = np.nextafter(rs.times[-1], np.inf)
        return rs

    monkeypatch.setattr(experiment, "run_experiment", perturbed)
    code, line = _run_in_process(capsys)
    assert code == 1 and line["correct"] is False


def test_compare_rule():
    from bench.compare import verdict

    parent = [10.0 + 0.1 * (i % 3) for i in range(10)]
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)[0] == "gain"
    assert verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[0] == "regression"
    assert verdict(parent, [v * 0.97 for v in parent], "higher", 0.1)[0] == "within bound"
    noisy = [10.0, 14.0, 8.0, 12.0, 9.0, 15.0, 7.0, 13.0, 11.0, 10.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert verdict(parent[:5], [v * 1.2 for v in parent[:5]], "higher", 0.1)[0] != "gain"


def test_run_outlives_the_processes_it_leaves_behind():
    # The inner command starts a 1 s sleeper and exits 3 without waiting
    # for it; the reaper must return 3, and only after the sleeper ended.
    orphan = ("import subprocess, sys; "
              "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(1)']); sys.exit(3)")
    probe = ("import sys, time; from bench.measure import reaped; t = time.monotonic(); "
             f"code = reaped([sys.executable, '-c', {orphan!r}]); "
             "print(code, time.monotonic() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    code, elapsed = proc.stdout.split()
    assert int(code) == 3 and float(elapsed) >= 0.9, proc.stdout + proc.stderr


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("run", "--workload", "sim-minife", "--quick", cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
