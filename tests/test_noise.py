"""Unit tests for the background-noise model."""

import numpy as np
import pytest

from repro.sim.noise import (
    AnomalySpec,
    MicroNoiseSpec,
    NoiseSourceSpec,
    desktop_noise,
    hpc_noise,
    runlevel3,
)
from repro.sim.task import TaskKind

from conftest import make_machine
from repro.sim.platform import get_platform


class TestSpecs:
    def test_steal_fraction_scales_with_tick_rate(self):
        micro = MicroNoiseSpec(tick_mean=4e-6, softirq_prob=0.0)
        assert micro.steal_fraction(250) == pytest.approx(0.001)
        assert micro.steal_fraction(1000) == pytest.approx(0.004)

    def test_steal_fraction_capped(self):
        micro = MicroNoiseSpec(tick_mean=1.0)
        assert micro.steal_fraction(250) == 0.25

    def test_source_validation(self):
        with pytest.raises(ValueError):
            NoiseSourceSpec("x", TaskKind.THREAD_NOISE, rate=-1.0, duration_median=1e-6)
        with pytest.raises(ValueError):
            NoiseSourceSpec("x", TaskKind.THREAD_NOISE, rate=1.0, duration_median=0.0)

    def test_anomaly_spec_validation(self):
        with pytest.raises(ValueError):
            AnomalySpec(prob=1.5)
        with pytest.raises(ValueError):
            AnomalySpec(prob=0.5, candidates=())

    def test_intensity_scaling(self):
        env = desktop_noise()
        scaled = env.intensity_scaled(2.0)
        for a, b in zip(env.sources, scaled.sources):
            assert b.rate == pytest.approx(2.0 * a.rate)


class TestPresets:
    def test_desktop_has_gui_sources(self):
        env = desktop_noise(gui=True)
        names = {s.name for s in env.sources}
        assert "Xorg" in names

    def test_desktop_without_gui(self):
        env = desktop_noise(gui=False)
        names = {s.name for s in env.sources}
        assert "Xorg" not in names

    def test_runlevel3_strips_gui(self):
        env = runlevel3(desktop_noise(gui=True))
        names = {s.name for s in env.sources}
        assert "Xorg" not in names and "gnome-shell" not in names
        assert not env.gui

    def test_hpc_reserved_sets_affinity(self):
        env = hpc_noise(reserved_cpus=(48, 49))
        assert env.os_affinity == (48, 49)

    def test_anomaly_prob_override(self):
        env = desktop_noise(anomaly_prob=0.9)
        assert env.anomalies.prob == 0.9


class TestNoiseModel:
    def test_silent_env_produces_nothing(self):
        m = make_machine(seed=3, tracing=True)
        m.run(lambda mm: mm.engine.schedule(0.01, mm.workload_done), expected_duration=0.01)
        assert m.tracer.macro_record_count == 0

    def test_macro_sources_fire(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=3, tracing=True)

        def start(mm):
            mm.engine.schedule(0.5, mm.workload_done)

        m.run(start, expected_duration=0.5)
        assert m.tracer.macro_record_count > 0

    def test_determinism_same_seed(self):
        plat = get_platform("intel-9700kf")
        counts = []
        for _ in range(2):
            m = make_machine(plat, seed=42, tracing=True)
            m.run(lambda mm: mm.engine.schedule(0.3, mm.workload_done), expected_duration=0.3)
            counts.append(m.tracer.macro_record_count)
        assert counts[0] == counts[1]

    def test_different_seeds_differ(self):
        plat = get_platform("intel-9700kf")
        counts = []
        for seed in (1, 2):
            m = make_machine(plat, seed=seed, tracing=True)
            m.run(lambda mm: mm.engine.schedule(0.3, mm.workload_done), expected_duration=0.3)
            counts.append(m.tracer.macro_record_count)
        assert counts[0] != counts[1]

    def test_start_twice_rejected(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=1)
        assert m.noise_model is not None
        m.noise_model.start(1.0)
        with pytest.raises(RuntimeError):
            m.noise_model.start(1.0)

    def test_anomaly_forced_with_prob_one(self):
        from dataclasses import replace

        plat = get_platform("intel-9700kf")
        env = replace(plat.noise, anomalies=replace(plat.noise.anomalies, prob=1.0))
        m = make_machine(plat.with_noise(env), seed=5)
        assert m.noise_model is not None
        m.noise_model.start(1.0)
        assert m.noise_model.anomaly is not None
        m.noise_model.stop()

    def test_anomaly_scales_with_cores(self):
        # Same seed: the AMD burst should be roughly 4x the Intel one.
        from dataclasses import replace

        busys = {}
        for name in ("intel-9700kf", "amd-9950x3d"):
            plat = get_platform(name)
            env = replace(plat.noise, anomalies=replace(plat.noise.anomalies, prob=1.0))
            m = make_machine(plat.with_noise(env), seed=5, tracing=True)
            m.run(lambda mm: mm.engine.schedule(2.5, mm.workload_done), expected_duration=2.0)
            trace = m.tracer.finalize(2.5, (), None, np.random.default_rng(0))
            anomaly = m.noise_model.anomaly.name
            mask = trace.events_of_source(anomaly)
            busys[name] = trace.durations[mask].sum()
        assert busys["amd-9950x3d"] > 2.0 * busys["intel-9700kf"]


class TestMicroSynthesis:
    def test_busy_cpus_tick_at_full_rate(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=7)
        m.noise_model.start(1.0)
        cpus, kinds, starts, durs = m.noise_model.synthesize_micro_records(1.0, (0,))
        tick_counts = np.bincount(cpus[kinds == 0], minlength=8)
        assert tick_counts[0] == pytest.approx(plat.tick_hz, abs=2)
        # idle cpus tick at a tenth (dyntick)
        assert tick_counts[1] == pytest.approx(plat.tick_hz / 10, abs=2)

    def test_all_starts_within_duration(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=7)
        m.noise_model.start(0.5)
        cpus, kinds, starts, durs = m.noise_model.synthesize_micro_records(0.5, (0, 1))
        # softirqs start right after their tick, so allow a hair over
        assert starts.max() < 0.5 + 1e-3
        assert (durs > 0).all()

    def test_softirq_fraction_plausible(self):
        plat = get_platform("intel-9700kf")
        m = make_machine(plat, seed=7)
        m.noise_model.start(2.0)
        cpus, kinds, starts, durs = m.noise_model.synthesize_micro_records(
            2.0, tuple(range(8))
        )
        frac = (kinds == 1).mean()
        assert 0.2 < frac / (1 - frac) / plat.noise.micro.softirq_prob < 2.0


def _reference_micro_records(model, duration, busy_cpus):
    """The per-CPU loop :meth:`NoiseModel.synthesize_micro_records`
    replaced, kept as its oracle: same draws, same columns."""
    micro = model.env.micro
    tick_hz = model.machine.platform.tick_hz
    busy = set(busy_cpus)
    cpu_list, kind_list, start_list, dur_list = [], [], [], []
    for cpu in range(model.machine.topology.n_logical):
        hz = tick_hz if cpu in busy else max(1, tick_hz // 10)
        n = int(duration * hz)
        if n <= 0:
            continue
        period = 1.0 / hz
        starts = (np.arange(n) + model.rng.uniform(0.0, 1.0)) * period
        starts = starts[starts < duration]
        n = len(starts)
        if n == 0:
            continue
        factor = model._run_factor * float(model._cpu_factors[cpu])
        durs = model.rng.lognormal(np.log(micro.tick_mean * factor), micro.tick_sigma, size=n)
        cpu_list.append(np.full(n, cpu, dtype=np.int32))
        kind_list.append(np.zeros(n, dtype=np.int8))
        start_list.append(starts)
        dur_list.append(durs)
        mask = model.rng.random(n) < micro.softirq_prob
        m = int(mask.sum())
        if m:
            sdurs = model.rng.lognormal(
                np.log(micro.softirq_mean * factor), micro.softirq_sigma, size=m
            )
            cpu_list.append(np.full(m, cpu, dtype=np.int32))
            kind_list.append(np.ones(m, dtype=np.int8))
            start_list.append(starts[mask] + durs[mask])
            dur_list.append(sdurs)
    if not cpu_list:
        empty = np.array([])
        return empty.astype(np.int32), empty.astype(np.int8), empty, empty
    return tuple(np.concatenate(c) for c in (cpu_list, kind_list, start_list, dur_list))


class _LatePhase:
    """A generator whose tick phases sit just below 1, so the last tick
    of a run that lasts a whole number of periods rounds onto its end."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator

    def uniform(self, low, high):
        self._rng.uniform(low, high)
        return 1.0 - 2.0**-53

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestMicroSynthesisReference:
    """The per-CPU draws and the columns equal the old loop's, byte for
    byte, and leave the generator in the same state."""

    @staticmethod
    def _pair(platform, seed, wrap=None):
        models = []
        for _ in range(2):
            m = make_machine(get_platform(platform), seed=seed)
            if wrap is not None:
                m.noise_model.rng = wrap(m.noise_model.rng)
            m.noise_model.start(0.5)
            models.append(m.noise_model)
        return models

    @staticmethod
    def _assert_same(new, ref, duration, busy):
        got = new.synthesize_micro_records(duration, busy)
        want = _reference_micro_records(ref, duration, busy)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        assert new.rng.bit_generator.state == ref.rng.bit_generator.state
        return got

    @pytest.mark.parametrize(
        "platform", ["intel-9700kf", "amd-9950x3d", "a64fx", "a64fx-reserved", "hpc-2s64"]
    )
    @pytest.mark.parametrize("busy", ["none", "partial", "all"])
    @pytest.mark.parametrize("ticks", [None, 40.0, 3.5])
    def test_equals_reference(self, platform, busy, ticks):
        new, ref = self._pair(platform, seed=sum(map(ord, platform + busy)))
        n_cpu = new.machine.topology.n_logical
        busy_cpus = {"none": (), "partial": tuple(range(1, n_cpu, 3)), "all": tuple(range(n_cpu))}[busy]
        tick_hz = new.machine.platform.tick_hz
        # a plain length, a whole number of busy tick periods, and less
        # than one idle tick period (idle CPUs then draw nothing)
        duration = 0.3137 if ticks is None else ticks / tick_hz
        cpus, kinds, _, _ = self._assert_same(new, ref, duration, busy_cpus)
        if ticks == 3.5:
            assert set(cpus.tolist()) <= set(busy_cpus)
        assert len(cpus) > 0 or not busy_cpus

    def test_last_tick_on_the_end_is_dropped(self):
        new, ref = self._pair("intel-9700kf", seed=3, wrap=_LatePhase)
        tick_hz = new.machine.platform.tick_hz
        duration = 40 / tick_hz
        cpus, kinds, starts, _ = self._assert_same(new, ref, duration, (0, 1))
        assert (starts[kinds == 0] < duration).all()
        assert np.count_nonzero((cpus == 0) & (kinds == 0)) < 40
