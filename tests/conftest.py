"""Shared fixtures: quiet machines, small platforms, seeded RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.machine import Machine
from repro.sim.noise import NoiseEnvironment
from repro.sim.platform import PlatformSpec, get_platform
from repro.sim.scheduler import Scheduler


@pytest.fixture
def engine() -> Engine:
    return Engine()


@pytest.fixture
def topo4() -> Topology:
    return Topology(n_physical=4, smt=1)


@pytest.fixture
def topo_smt() -> Topology:
    return Topology(n_physical=4, smt=2)


@pytest.fixture
def sched(engine, topo4) -> Scheduler:
    return Scheduler(engine, topo4)


@pytest.fixture
def sched_nothrottle(engine, topo4) -> Scheduler:
    return Scheduler(engine, topo4, rt_throttle=False)


def silent_env() -> NoiseEnvironment:
    """A noise environment that produces nothing (deterministic tests)."""
    from repro.sim.noise import AnomalySpec, MicroNoiseSpec

    return NoiseEnvironment(
        micro=MicroNoiseSpec(
            tick_mean=1e-12,
            softirq_prob=0.0,
            run_factor_sd=0.0,
            cpu_factor_sd=0.0,
            speed_wander_mean=0.0,
            speed_wander_sd=0.0,
        ),
        sources=(),
        anomalies=AnomalySpec(prob=0.0),
    )


@pytest.fixture
def quiet_platform() -> PlatformSpec:
    """Intel preset with all noise silenced."""
    return get_platform("intel-9700kf").with_noise(silent_env())


def make_machine(platform=None, seed=0, **kwargs) -> Machine:
    """Machine factory with sensible test defaults."""
    if platform is None:
        platform = get_platform("intel-9700kf").with_noise(silent_env())
    rng = np.random.default_rng(seed)
    kwargs.setdefault("tracing", False)
    return Machine(platform, rng, **kwargs)


@pytest.fixture
def quiet_machine(quiet_platform) -> Machine:
    return make_machine(quiet_platform)


@pytest.fixture
def fast_service(monkeypatch):
    """Service loops that look again every 10 ms: workers, clients and
    supervisors park on their notify channel or sleep for their poll
    interval between checks, and a supervisor restarts after a backoff."""
    from repro.service import client, supervisor, worker

    for module in (client, supervisor, worker):
        monkeypatch.setattr(module, "POLL_S", 0.01)
    monkeypatch.setattr(supervisor, "BACKOFF_BASE_S", 0.01)
