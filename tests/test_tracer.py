"""Unit tests for the OSnoise-style tracer."""

import numpy as np
import pytest

from repro.core.events import EventType
from repro.sim.noise import MicroNoiseSpec
from repro.sim.platform import get_platform
from repro.sim import tracer as tracer_mod
from repro.sim.task import SchedPolicy, Task, TaskKind
from repro.sim.tracer import OSNoiseTracer

from conftest import make_machine


def run_noise_burst(tracing=True, seed=0, keep_trace=True):
    """Run a quiet machine with one injected FIFO noise task."""
    m = make_machine(seed=seed, tracing=tracing)

    def start(mm):
        noise = Task(
            "burst",
            policy=SchedPolicy.FIFO,
            rt_priority=90,
            kind=TaskKind.IRQ_NOISE,
            work=0.01,
        )
        mm.scheduler.submit(noise, hint=0)
        mm.engine.schedule(0.1, mm.workload_done)

    result = m.run(start, expected_duration=0.1, keep_trace=keep_trace)
    return m, result


class TestRecording:
    def test_records_noise_task(self):
        m, result = run_noise_burst()
        assert m.tracer.macro_record_count == 1
        trace = result.trace
        assert trace is not None
        assert "burst" in trace.sources

    def test_disabled_records_nothing(self):
        m, result = run_noise_burst(tracing=False)
        assert m.tracer.macro_record_count == 0
        assert result.trace is None

    def test_no_consumer_records_nothing(self):
        m, result = run_noise_burst(keep_trace=False)
        assert m.tracer.macro_record_count == 0
        assert result.trace is None
        assert result.exec_time == run_noise_burst()[1].exec_time

    def test_recorded_duration_is_cpu_time(self):
        m, result = run_noise_burst()
        mask = result.trace.events_of_source("burst")
        assert result.trace.durations[mask][0] == pytest.approx(0.01, rel=1e-6)

    def test_etype_mapping(self):
        m, result = run_noise_burst()
        mask = result.trace.events_of_source("burst")
        assert EventType(int(result.trace.etypes[mask][0])) is EventType.IRQ


class TestOverhead:
    def test_overhead_zero_when_disabled(self):
        tracer = OSNoiseTracer(enabled=False)
        assert tracer.overhead_steal(250, MicroNoiseSpec()) == 0.0

    def test_overhead_proportional_to_event_rate(self, monkeypatch):
        monkeypatch.setattr(tracer_mod, "PER_EVENT_OVERHEAD", 10e-6)
        tracer = OSNoiseTracer()
        micro = MicroNoiseSpec(softirq_prob=0.0)
        assert tracer.overhead_steal(100, micro) == pytest.approx(1e-3)
        assert tracer.overhead_steal(200, micro) == pytest.approx(2e-3)

    def test_tracing_slows_compute_run(self):
        # Same seed with and without tracing: traced run is slower but
        # by less than 1% (Table 1's claim).
        from repro.harness.experiment import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            platform="intel-9700kf", workload="nbody", reps=3, seed=11
        )
        on = run_experiment(spec.with_(tracing=True)).mean
        off = run_experiment(spec.with_(tracing=False)).mean
        assert off < on < off * 1.01


class TestFinalize:
    def test_micro_records_included(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=1, tracing=True)
        m.run(lambda mm: mm.engine.schedule(0.2, mm.workload_done), expected_duration=0.2)
        # workload_cpus empty -> dyntick everywhere, still some ticks
        trace = m.tracer.finalize(0.2, (), m.noise_model, np.random.default_rng(0))
        assert "local_timer:236" in trace.sources

    def test_softirq_sources_sampled(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=1, tracing=True)
        m.run(lambda mm: mm.engine.schedule(0.5, mm.workload_done), expected_duration=0.5)
        trace = m.tracer.finalize(
            0.5, tuple(range(8)), m.noise_model, np.random.default_rng(0)
        )
        softirq_names = {"RCU:9", "SCHED:7", "TIMER:1", "NET_RX:3"}
        assert softirq_names & set(trace.sources)

    def test_exec_time_recorded(self):
        m, result = run_noise_burst()
        assert result.trace.exec_time == pytest.approx(0.1)
