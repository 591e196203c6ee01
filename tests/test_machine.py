"""Unit tests for the Machine facade."""

import numpy as np
import pytest

from repro.sim.machine import Machine
from repro.sim.platform import get_platform

from conftest import make_machine


class TestLifecycle:
    def test_run_returns_exec_time(self, quiet_platform):
        m = make_machine(quiet_platform)
        result = m.run(
            lambda mm: mm.engine.schedule(0.25, mm.workload_done), expected_duration=0.25
        )
        assert result.exec_time == pytest.approx(0.25)

    def test_single_use(self, quiet_platform):
        m = make_machine(quiet_platform)
        m.run(lambda mm: mm.engine.schedule(0.1, mm.workload_done), expected_duration=0.1)
        with pytest.raises(RuntimeError):
            m.run(lambda mm: mm.engine.schedule(0.1, mm.workload_done), expected_duration=0.1)

    def test_deadlock_detected(self, quiet_platform):
        m = make_machine(quiet_platform)
        with pytest.raises(RuntimeError, match="deadlock"):
            m.run(lambda mm: None, expected_duration=1.0)

    def test_workload_done_idempotent(self, quiet_platform):
        m = make_machine(quiet_platform)

        def start(mm):
            mm.engine.schedule(0.1, mm.workload_done)
            mm.engine.schedule(0.1, mm.workload_done)

        result = m.run(start, expected_duration=0.1)
        assert result.exec_time == pytest.approx(0.1)

    def test_trace_none_when_tracing_off(self, quiet_platform):
        m = make_machine(quiet_platform, tracing=False)
        result = m.run(
            lambda mm: mm.engine.schedule(0.1, mm.workload_done), expected_duration=0.1
        )
        assert result.trace is None

    def test_trace_present_when_tracing_on(self, quiet_platform):
        m = make_machine(quiet_platform, tracing=True)
        result = m.run(
            lambda mm: mm.engine.schedule(0.1, mm.workload_done), expected_duration=0.1
        )
        assert result.trace is not None

    def test_meta_passed_through(self, quiet_platform):
        m = make_machine(quiet_platform)
        result = m.run(
            lambda mm: mm.engine.schedule(0.1, mm.workload_done),
            expected_duration=0.1,
            meta={"run": 7},
        )
        assert result.meta == {"run": 7}

    def test_anomaly_reported(self):
        from dataclasses import replace

        plat = get_platform("intel-9700kf")
        env = replace(plat.noise, anomalies=replace(plat.noise.anomalies, prob=1.0))
        m = make_machine(plat.with_noise(env), seed=5)
        result = m.run(
            lambda mm: mm.engine.schedule(0.5, mm.workload_done), expected_duration=0.5
        )
        assert result.anomaly is not None

    def test_noise_disabled_machine(self, quiet_platform):
        rng = np.random.default_rng(0)
        m = Machine(quiet_platform, rng, enable_noise=False, tracing=False)
        assert m.noise_model is None
        assert m.extra_steal() == 0.0
        result = m.run(
            lambda mm: mm.engine.schedule(0.1, mm.workload_done), expected_duration=0.1
        )
        assert result.anomaly is None

    def test_workload_cpu_accounting(self, quiet_platform):
        m = make_machine(quiet_platform)
        m.note_workload_cpu(3)
        m.note_workload_cpu(3)
        m.note_workload_cpu(5)
        assert m.workload_cpus == {3, 5}
