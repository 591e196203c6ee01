"""The scheduler's running memory-demand total.

`Scheduler._update` keeps ``_mem_total``, a running sum of the streaming
tasks' share-weighted demand.  It is only an estimate: with more than 4
streamers and its drift at least ``_DRIFT_MARGIN`` away from both
thresholds it picks between "nothing" and "arm the deferred rescale";
everywhere else the exact insertion-order sum decides.  Setting the
margin to infinity forces the exact sum on every update, which is the
oracle these tests compare against.  It also turns off the barrier-
arrival fast path of `Scheduler._task_done`, which lets the same guard
settle a spinning thread without an `_update`.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.harness.executor import SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.noise.base import NoiseStack
from repro.noise.sources import (
    HpasCacheThrashSource,
    HpasMemoryBandwidthSource,
    MemoryNoiseEvent,
    MemoryNoiseSource,
)
from repro.sim import scheduler as scheduler_mod
from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.scheduler import Scheduler
from repro.sim.task import Task
from tests.golden_cases import _noise, build_cases

_MEMORY_NOISE = {
    "memory": lambda: MemoryNoiseSource(
        [MemoryNoiseEvent(start=0.0, duration=0.2, bandwidth_gbs=15.0)]
    ),
    "hpas.membw": lambda: HpasMemoryBandwidthSource(
        start=0.0, duration=0.15, bandwidth_gbs=12.0, streams=2
    ),
    "hpas.cache_thrash": lambda: HpasCacheThrashSource(
        start=0.02, duration=0.1, cpus=(0, 1), bandwidth_gbs=6.0
    ),
}


def _runs():
    # every workload streams a little, so every golden case runs phase 3
    for case in build_cases():
        kwargs = {k: v for k, v in case.items() if k not in ("name", "noise")}
        yield case["name"], ExperimentSpec(reps=2, **kwargs), lambda c=case: _noise(c.get("noise"))
    babelstream = ExperimentSpec(
        platform="intel-9700kf", workload="babelstream", reps=2, seed=11,
        workload_params={"iters": 12},
    )
    minife = ExperimentSpec(
        platform="a64fx", workload="minife", reps=2, seed=12, workload_params={"cg_iters": 8},
    )
    for kind, make in _MEMORY_NOISE.items():
        yield f"babelstream+{kind}", babelstream, lambda m=make: NoiseStack([m()])
    # short hogs that exit mid-region, among 48 streaming threads
    yield "a64fx-minife+memory", minife, lambda: NoiseStack([MemoryNoiseSource([
        MemoryNoiseEvent(start=0.001 * i, duration=0.002, bandwidth_gbs=20.0) for i in range(1, 9)
    ])])


def _observe(monkeypatch, spec, noise, exact_only):
    """Run ``spec`` recording the decision state after every `_task_done`
    and every top-level `_update`; also check the running total against
    the exact sum each time.  An `_update` nested in another or in a
    `_task_done` is not logged: the estimate run settles most barrier
    arrivals without one, so only the outermost calls line up."""
    if exact_only:
        monkeypatch.setattr(scheduler_mod, "_DRIFT_MARGIN", math.inf)
    update, task_done = Scheduler._update, Scheduler._task_done
    log = []
    depth = [0]
    updates = [0]

    def record(self):
        exact = 0.0
        for t in self._mem_running.values():
            exact += t.mem_demand * t.cpu_share
        assert abs(self._mem_total - exact) <= 1e-9 * max(1.0, exact)
        log.append(
            (self.engine.now, self._mem_scale, self._mem_rescale_pending, self.engine._seq)
        )

    def observed(method, count):
        def wrapper(self, arg):
            count[0] += 1
            depth[0] += 1
            try:
                method(self, arg)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                record(self)

        return wrapper

    monkeypatch.setattr(Scheduler, "_update", observed(update, updates))
    monkeypatch.setattr(Scheduler, "_task_done", observed(task_done, [0]))
    calls = [0]
    scale_for = MemorySystem.scale_for

    def counted_scale_for(self, total):
        calls[0] += 1
        return scale_for(self, total)

    monkeypatch.setattr(MemorySystem, "scale_for", counted_scale_for)
    rs = run_experiment(spec, noise=noise, executor=SerialExecutor())
    monkeypatch.undo()
    return [float(t).hex() for t in rs.times], log, calls[0], updates[0]


@pytest.mark.parametrize("name,spec,noise", list(_runs()), ids=[r[0] for r in _runs()])
def test_running_total_tracks_exact_sum(monkeypatch, name, spec, noise):
    times, log, estimated_calls, updates = _observe(monkeypatch, spec, noise(), exact_only=False)
    exact_times, exact_log, exact_calls, exact_updates = _observe(
        monkeypatch, spec, noise(), exact_only=True
    )
    # Every event leaves the same scale, pending flag and event count
    # as the exact path: each estimate-made decision was the exact one.
    assert log and log == exact_log
    assert times == exact_times
    # The exact path evaluates the estimate too, then the exact sum:
    # each update the estimate settled alone saved one scale_for call.
    assert exact_calls >= estimated_calls
    if spec.workload in ("babelstream", "minife"):
        assert exact_calls > estimated_calls
    # Each barrier arrival the fast path settled is one `_update` the
    # exact run made and this one did not; the 48 streaming threads of
    # a64fx/minife take it.
    assert exact_updates >= updates
    if spec.platform.startswith("a64fx"):
        assert exact_updates > updates


# ----------------------------------------------------------------------
# the guard at its edges
# ----------------------------------------------------------------------
def _f2i(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _i2f(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def _drift(memory, demands, scale):
    """The exact path's drift for these per-task demands (share 1.0)."""
    total = 0.0
    for d in demands:
        total += d
    return abs(memory.scale_for(total) - scale) / scale


def _build(bandwidth, first, pending):
    """Five saturating streamers pinned one per CPU, settled at t=1 ms.
    ``pending`` arms a deferred rescale with a drift between the
    tolerance and 0.25."""
    engine = Engine()
    sched = Scheduler(engine, Topology(n_physical=6, smt=1), memory=MemorySystem(bandwidth))
    done = {}
    tasks = []
    for i, d in enumerate([first, 30.0, 30.0, 30.0, 30.0]):
        t = Task(f"s{i}", work=0.05 + 0.01 * i, mem_demand=d,
                 affinity=frozenset({i}), pinned=True,
                 on_complete=lambda t: done.setdefault(t.name, engine.now))
        sched.submit(t, cpu=i)
        tasks.append(t)
    engine.run(until=1e-3)
    assert not sched._mem_rescale_pending
    if pending:
        sched.assign_work(tasks[3], 0.04, mem_demand=40.0)
        sched.refresh(tasks[3])
        assert sched._mem_rescale_pending
    return engine, sched, tasks, done


def _edge_case(target, pending, exact=True):
    """(bandwidth, first task's demand, last task's new demand) putting
    the drift of the last task's demand change at ``target``: exactly,
    or for ``exact=False`` at the first float at or above it.  Drift
    values are sparse near 0.25, so a few bandwidths are tried."""
    for kb in range(50):
        for k in range(20):
            bandwidth, first = 100.0 + 0.731 * kb, 30.0 + 0.0137 * k
            _, sched, tasks, _ = _build(bandwidth, first, pending)
            prefix = [t.mem_demand for t in tasks[:4]]
            scale = sched._mem_scale
            # drift rises with the new demand once the total passes the
            # settled one (first + 120): bisect over float bit patterns
            lo, hi = _f2i(max(first + 120.0 - sum(prefix), 1e-3)), _f2i(1e4)
            while lo < hi:
                mid = (lo + hi) // 2
                if _drift(sched.memory, prefix + [_i2f(mid)], scale) >= target:
                    hi = mid
                else:
                    lo = mid + 1
            for d in (_i2f(lo + j) for j in range(-4, 5)):
                if not exact or _drift(sched.memory, prefix + [d], scale) == target:
                    return bandwidth, first, _i2f(lo) if not exact else d
    raise AssertionError(f"no demand puts the drift at {target!r}")


def _edge_run(monkeypatch, case, pending, exact_only):
    bandwidth, first, demand = case
    if exact_only:
        monkeypatch.setattr(scheduler_mod, "_DRIFT_MARGIN", math.inf)
    engine, sched, tasks, done = _build(bandwidth, first, pending)
    calls = [0]
    scale_for = sched.memory.scale_for

    def counted(total):
        calls[0] += 1
        return scale_for(total)

    sched.memory.scale_for = counted
    settled = sched._mem_scale
    sched.assign_work(tasks[4], 0.04, mem_demand=demand)
    sched.refresh(tasks[4])
    state = (
        sched._mem_scale != settled,
        sched._mem_scale,
        sched._mem_rescale_pending,
        engine._seq,
        [t._completion_event.time for t in tasks],
    )
    update_calls = calls[0]
    engine.run()
    monkeypatch.undo()
    return state, sorted(done.items()), update_calls


_TOL = scheduler_mod.MEM_RESCALE_TOLERANCE
_EDGES = {
    "0.25-ulp": math.nextafter(0.25, 0.0),
    "0.25": 0.25,
    "0.25+ulp": math.nextafter(0.25, 1.0),
    "tol-ulp": math.nextafter(_TOL, 0.0),
    "tol": _TOL,
    "tol+ulp": math.nextafter(_TOL, 1.0),
}


@pytest.mark.parametrize("pending", [False, True], ids=["idle", "pending"])
@pytest.mark.parametrize("edge", list(_EDGES))
def test_guard_edges_match_exact_path(monkeypatch, edge, pending):
    target = _EDGES[edge]
    case = _edge_case(target, pending)
    state, done, calls = _edge_run(monkeypatch, case, pending, exact_only=False)
    exact_state, exact_done, _ = _edge_run(monkeypatch, case, pending, exact_only=True)
    assert state == exact_state
    assert done == exact_done
    # within the margin the exact sum decided (second scale_for call)
    assert calls == 2
    # the scenario really sits on the edge: the exact rule's outcome
    assert state[0] == (target > 0.25)
    assert state[2] == (pending or _TOL < target <= 0.25)


@pytest.mark.parametrize("pending", [False, True], ids=["idle", "pending"])
@pytest.mark.parametrize(
    "target", [_TOL - 2e-6, _TOL + 2e-6, 0.25 - 2e-6], ids=["tol-2e-6", "tol+2e-6", "0.25-2e-6"]
)
def test_guard_lets_estimate_decide_outside_margin(monkeypatch, target, pending):
    case = _edge_case(target, pending, exact=False)
    state, done, calls = _edge_run(monkeypatch, case, pending, exact_only=False)
    exact_state, exact_done, _ = _edge_run(monkeypatch, case, pending, exact_only=True)
    assert calls == 1
    assert state == exact_state
    assert done == exact_done
