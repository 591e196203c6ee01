"""Whole runs under the invariant checker of ``tests/sim_check.py``.

The golden fixtures prove the simulator unchanged; these tests check
that every golden case also keeps the model's invariants (capacity,
FIFO preemption, affinity, an exact idle count and queue weights, a
monotone clock, an exact running demand total, bit-exact rates, a
flushed engine with an exact dead-entry count) after every scheduler
update, every completion and every
deferred rescale, and that the checking subclass leaves the
results on the fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.task import SchedPolicy, Task
from tests import sim_check
from tests.golden_cases import FIXTURE_PATH, build_cases, run_case

_FIXTURES = Path(__file__).resolve().parent.parent / FIXTURE_PATH


@pytest.fixture
def checked(monkeypatch):
    return sim_check.install(monkeypatch)


@pytest.mark.parametrize("case", build_cases(), ids=[c["name"] for c in build_cases()])
def test_golden_case_keeps_invariants(checked, case):
    expected = {c["name"]: c for c in json.loads(_FIXTURES.read_text())["cases"]}[case["name"]]
    assert run_case(case)["reps"] == expected["reps"]
    assert checked.checks > 0


def _small(bandwidth=float("inf")):
    engine = Engine()
    sched = sim_check.CheckedScheduler(
        engine, Topology(n_physical=2, smt=2), memory=MemorySystem(bandwidth)
    )
    return engine, sched


class TestCheckerCatches:
    """Each invariant fails the check once broken by hand."""

    @staticmethod
    def _placed(sched, **kwargs):
        t = Task("t", work=1.0, **kwargs)
        sched.submit(t, cpu=0)
        return t

    def test_clean_state_passes(self):
        engine, sched = _small(bandwidth=10.0)
        self._placed(sched, mem_demand=20.0)
        engine.run()
        sched.check()

    def test_rate_off_by_one_ulp(self):
        _, sched = _small()
        t = self._placed(sched)
        t.rate = 1.0 - 2.0**-53
        with pytest.raises(AssertionError, match="rate"):
            sched.check()

    def test_shares_over_capacity(self):
        _, sched = _small()
        t = self._placed(sched)
        t.cpu_share = t.rate = 1.5
        with pytest.raises(AssertionError, match="capacity"):
            sched.check()

    def test_other_beside_fifo_head(self):
        _, sched = _small()
        t = self._placed(sched)
        noise = Task("irq", work=1.0, policy=SchedPolicy.FIFO, rt_priority=90)
        sched.submit(noise, cpu=0)
        t.cpu_share = t.rate = 0.5
        noise.cpu_share = noise.rate = 0.5
        with pytest.raises(AssertionError, match="FIFO head"):
            sched.check()

    def test_task_outside_affinity(self):
        _, sched = _small()
        t = self._placed(sched)
        t.affinity = frozenset({1})
        with pytest.raises(AssertionError, match="affinity"):
            sched.check()

    def test_idle_count_off(self):
        _, sched = _small()
        self._placed(sched)
        sched._n_idle += 1
        with pytest.raises(AssertionError, match="idle count"):
            sched.check()

    def test_crowded_count_off(self):
        _, sched = _small()
        self._placed(sched)
        sched._n_crowded += 1
        with pytest.raises(AssertionError, match="crowded count"):
            sched.check()

    def test_cached_weight_off_by_one_ulp(self):
        _, sched = _small()
        self._placed(sched, weight=0.1)
        self._placed(sched, weight=0.2)
        sched.check()
        assert sched._cpus[0].weight == 0.1 + 0.2 != 0.3
        sched._cpus[0].weight = 0.3
        with pytest.raises(AssertionError, match="cached weight"):
            sched.check()

    def test_running_total_drift(self):
        engine, sched = _small(bandwidth=10.0)
        self._placed(sched, mem_demand=20.0)
        sched._mem_total += 1e-6
        with pytest.raises(AssertionError, match="running total"):
            sched.check()

    def test_unflushed_stage(self):
        engine, sched = _small()
        engine.stage(1.0, lambda: None)
        with pytest.raises(AssertionError, match="staged"):
            sched.check()

    def test_dead_entry_count_off(self):
        engine, sched = _small()
        self._placed(sched)
        sched.check()
        engine._n_cancelled += 1
        with pytest.raises(AssertionError, match="dead entries"):
            sched.check()

    def test_streamer_off_its_cpu(self):
        _, sched = _small(bandwidth=10.0)
        self._placed(sched, mem_demand=20.0)
        gone = Task("gone", work=1.0, mem_demand=20.0)
        sched._mem_running[gone.tid] = gone
        with pytest.raises(AssertionError, match="left its CPU"):
            sched.check()

    def test_stale_contribution(self):
        _, sched = _small(bandwidth=10.0)
        t = self._placed(sched, mem_demand=20.0)
        t._mem_contrib *= 1.0 + 2.0**-52
        sched._mem_total = t._mem_contrib
        with pytest.raises(AssertionError, match="counted"):
            sched.check()

    def test_clock_going_back(self):
        engine, sched = _small()
        engine.now = 1.0
        sched.check()
        engine.now = 0.5
        with pytest.raises(AssertionError, match="clock"):
            sched.check()
