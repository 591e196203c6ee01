"""Unit tests for the two-class scheduler — the semantics the paper's
findings rest on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.executor import SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.sim import scheduler as scheduler_mod
from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.scheduler import SchedParams, Scheduler
from repro.sim.task import SchedPolicy, Task, TaskKind, WorkPool
from tests.golden_cases import _noise, build_cases
from tests.sim_check import CheckedScheduler


def run_tasks(sched, *tasks, cpus=None):
    """Submit tasks (optionally to fixed CPUs) and run to completion."""
    done = {}

    def finish(t):
        done[t.name] = sched.engine.now

    for i, t in enumerate(tasks):
        t.on_complete = finish
        sched.submit(t, cpu=None if cpus is None else cpus[i])
    sched.engine.run()
    return done


def fifo_noise(duration, cpu=None, prio=90, name="noise"):
    return Task(
        name,
        policy=SchedPolicy.FIFO,
        rt_priority=prio,
        kind=TaskKind.IRQ_NOISE,
        work=duration,
        affinity=frozenset({cpu}) if cpu is not None else None,
    )


class TestFairShare:
    def test_single_task_full_speed(self, sched):
        done = run_tasks(sched, Task("a", work=2.0))
        assert done["a"] == pytest.approx(2.0)

    def test_two_tasks_same_cpu_share_equally(self, sched):
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, a, b)
        assert done["a"] == pytest.approx(2.0)
        assert done["b"] == pytest.approx(2.0)

    def test_weights_bias_shares(self, sched):
        a = Task("a", work=1.0, weight=3.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0, weight=1.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, a, b)
        # a runs at 0.75 until done (t=4/3), then b alone
        assert done["a"] == pytest.approx(4.0 / 3.0)
        assert done["a"] < done["b"]

    def test_early_finisher_speeds_up_survivor(self, sched):
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=0.5, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, a, b)
        assert done["b"] == pytest.approx(1.0)
        assert done["a"] == pytest.approx(1.5)

    def test_separate_cpus_no_interference(self, sched):
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0, affinity=frozenset({1}), pinned=True)
        done = run_tasks(sched, a, b)
        assert done["a"] == done["b"] == pytest.approx(1.0)


class TestFifoPreemption:
    def test_fifo_blocks_other_completely(self, sched_nothrottle):
        sched = sched_nothrottle
        w = Task("w", work=1.0, affinity=frozenset({0}), pinned=True)
        done = {}
        w.on_complete = lambda t: done.setdefault("w", sched.engine.now)
        sched.submit(w, cpu=0)
        sched.engine.schedule(0.2, lambda: sched.submit(fifo_noise(0.5, cpu=0), cpu=0))
        sched.engine.run()
        assert done["w"] == pytest.approx(1.5)

    def test_rt_throttle_leaves_other_a_slice(self, engine, topo4):
        sched = Scheduler(engine, topo4, rt_throttle=True)
        w = Task("w", work=10.0, affinity=frozenset({0}), pinned=True)
        sched.submit(w, cpu=0)
        # Throttled FIFO leaves 5%: long noise, workload crawls through.
        engine.schedule(0.0, lambda: sched.submit(fifo_noise(100.0, cpu=0), cpu=0))
        engine.run(until=10.0)
        w.advance(engine.now)
        assert w.total_cpu_time == pytest.approx(0.05 * 10.0, rel=0.05)

    def test_higher_priority_fifo_wins(self, sched_nothrottle):
        sched = sched_nothrottle
        lo = fifo_noise(1.0, cpu=0, prio=10, name="lo")
        hi = fifo_noise(1.0, cpu=0, prio=90, name="hi")
        done = run_tasks(sched, lo, hi, cpus=[0, 0])
        assert done["hi"] == pytest.approx(1.0)
        assert done["lo"] == pytest.approx(2.0)

    def test_equal_priority_fifo_runs_in_arrival_order(self, sched_nothrottle):
        sched = sched_nothrottle
        a = fifo_noise(1.0, cpu=0, prio=50, name="a")
        b = fifo_noise(1.0, cpu=0, prio=50, name="b")
        done = run_tasks(sched, a, b, cpus=[0, 0])
        assert done["a"] < done["b"]

    def test_preemption_counter(self, sched_nothrottle):
        sched = sched_nothrottle
        w = Task("w", affinity=frozenset({0}), pinned=True)  # spinner
        sched.submit(w, cpu=0)
        sched.submit(fifo_noise(0.1, cpu=0), cpu=0)
        assert sched.preemptions == 1


class TestSMT:
    def test_busy_siblings_slow_each_other(self, engine, topo_smt):
        sched = Scheduler(engine, topo_smt, params=SchedParams(smt_factor=0.65))
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0, affinity=frozenset({4}), pinned=True)
        done = run_tasks(sched, a, b)
        assert done["a"] == pytest.approx(1.0 / 0.65)

    def test_idle_sibling_full_speed(self, engine, topo_smt):
        sched = Scheduler(engine, topo_smt)
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, a)
        assert done["a"] == pytest.approx(1.0)

    def test_sibling_finish_restores_speed(self, engine, topo_smt):
        sched = Scheduler(engine, topo_smt, params=SchedParams(smt_factor=0.5))
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=0.25, affinity=frozenset({4}), pinned=True)
        done = run_tasks(sched, a, b)
        # b: 0.25 work at 0.5 -> done at 0.5; a: 0.25 done by then, 0.75 at speed 1
        assert done["b"] == pytest.approx(0.5)
        assert done["a"] == pytest.approx(1.25)

    # Every single-CPU entry point passes `_update` a 1-tuple; each must
    # still re-rate the sibling when its CPU flips between busy and idle,
    # and keep the SMT factor when it restamps a CPU whose sibling is busy.
    # Each case acts on ``b`` (cpu 4, the sibling of cpu 0) and returns
    # the rates ``a`` (pinned on cpu 0) and ``b`` must have afterwards.
    @staticmethod
    def _submit(sched, a, b):
        sched.submit(b, cpu=4)
        return 0.5, 0.5

    @staticmethod
    def _remove(sched, a, b):
        sched.submit(b, cpu=4)
        sched.remove(b)
        return 1.0, 0.0

    @staticmethod
    def _task_done_exit(sched, a, b):
        sched.submit(b, cpu=4)
        sched.engine.run(until=0.5)  # b's 0.1 of work ends at t=0.2
        assert not b.alive
        return 1.0, 0.0

    @staticmethod
    def _set_steal(sched, a, b):
        sched.submit(b, cpu=4)
        sched.set_steal(0, 0.2)
        sched.set_steal(4, 0.5)
        return 0.8 * 0.5, 0.5 * 0.5

    @staticmethod
    def _migrate(sched, a, b):
        sched.submit(b, cpu=4)
        sched._migrate(b, 1)  # b is off-CPU for the migration cost
        return 1.0, 0.0

    @pytest.mark.parametrize(
        "action", ["_submit", "_remove", "_task_done_exit", "_set_steal", "_migrate"]
    )
    def test_single_cpu_entry_points_rerate_the_sibling(self, engine, topo_smt, action):
        sched = Scheduler(engine, topo_smt, params=SchedParams(smt_factor=0.5))
        a = Task("a", work=10.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=0.1, affinity=frozenset({1, 4}))
        sched.submit(a, cpu=0)
        assert a.rate == 1.0
        rate_a, rate_b = getattr(self, action)(sched, a, b)
        assert a.rate == rate_a
        assert b.rate == rate_b


class TestMemory:
    def test_saturation_scales_rates(self, engine, topo4):
        sched = Scheduler(engine, topo4, memory=MemorySystem(40.0))
        tasks = [
            Task(f"t{i}", work=1.0, mem_demand=30.0, affinity=frozenset({i}), pinned=True)
            for i in range(4)
        ]
        done = run_tasks(sched, *tasks)
        # demand 120 on 40 GB/s -> scale 1/3 -> 3 seconds
        assert done["t0"] == pytest.approx(3.0, rel=1e-6)

    def test_unsaturated_runs_full_speed(self, engine, topo4):
        sched = Scheduler(engine, topo4, memory=MemorySystem(100.0))
        t = Task("t", work=1.0, mem_demand=30.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, t)
        assert done["t"] == pytest.approx(1.0)

    def test_compute_tasks_unaffected_by_saturation(self, engine, topo4):
        sched = Scheduler(engine, topo4, memory=MemorySystem(10.0))
        mem = Task("m", work=1.0, mem_demand=30.0, affinity=frozenset({0}), pinned=True)
        cpu = Task("c", work=1.0, affinity=frozenset({1}), pinned=True)
        done = run_tasks(sched, mem, cpu)
        assert done["c"] == pytest.approx(1.0)
        assert done["m"] == pytest.approx(3.0, rel=0.05)

    def test_deferred_rescale_keeps_migration_penalty(self, engine):
        # A migrated streamer keeps its post-migration slowdown when a
        # small drift is applied later by the deferred rescale.
        sched = Scheduler(engine, Topology(n_physical=8, smt=1), memory=MemorySystem(100.0))
        tasks = [
            Task(f"s{i}", work=1.0, mem_demand=20.0, affinity=frozenset({i}), pinned=True)
            for i in range(7)
        ]
        tasks[0].speed_penalty = 0.97  # as after a same-node hop
        for i, t in enumerate(tasks):
            sched.submit(t, cpu=i)
        assert tasks[0].rate == pytest.approx(0.97 * 100.0 / 140.0)
        # 140 -> 145 GB/s of demand: a drift of about 3.4%, deferred
        sched.assign_work(tasks[6], 1.0, mem_demand=25.0)
        sched.refresh(tasks[6])
        assert sched._mem_rescale_pending
        engine.run(until=1e-3)
        assert sched._mem_scale == 100.0 / 145.0
        assert tasks[0].rate == pytest.approx(0.6690, abs=1e-4)
        assert tasks[0].rate == 0.97 * (100.0 / 145.0)
        assert tasks[1].rate == 100.0 / 145.0

    def test_share_weighted_demand(self, engine, topo4):
        # Two streaming tasks timesharing ONE cpu only pull one task's
        # bandwidth worth, so they are not memory-throttled.
        sched = Scheduler(engine, topo4, memory=MemorySystem(30.0))
        a = Task("a", work=1.0, mem_demand=30.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0, mem_demand=30.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, a, b)
        # cpu-share 0.5 each -> weighted demand 30 total -> no throttle
        assert done["a"] == pytest.approx(2.0, rel=0.05)


class TestPlacement:
    def test_prefers_idle_cpu(self, sched):
        a = Task("a")
        b = Task("b")
        c0 = sched.submit(a)
        c1 = sched.submit(b)
        assert c0 != c1

    def test_honours_single_affinity(self, sched):
        t = Task("t", affinity=frozenset({2}))
        assert sched.submit(t) == 2

    def test_rejects_cpu_outside_affinity(self, sched):
        t = Task("t", affinity=frozenset({2}))
        with pytest.raises(ValueError):
            sched.submit(t, cpu=0)

    def test_rejects_double_submit(self, sched):
        t = Task("t")
        sched.submit(t)
        with pytest.raises(ValueError):
            sched.submit(t)

    def test_idle_prefers_idle_sibling_pair(self, engine, topo_smt):
        sched = Scheduler(engine, topo_smt)
        spin = Task("s", affinity=frozenset({0}), pinned=True)
        sched.submit(spin, cpu=0)
        t = Task("t")
        # cpu 4 (sibling of busy 0) should lose to cpus 1..3
        assert sched.submit(t) in (1, 2, 3)

    def test_fifo_sticky_to_hint_even_with_idle_cpus(self, sched_nothrottle):
        sched = sched_nothrottle
        spin = Task("s", affinity=frozenset({0}), pinned=True)
        sched.submit(spin, cpu=0)
        noise = fifo_noise(0.1)
        assert sched.submit(noise, hint=0) == 0

    def test_fifo_moves_off_hint_when_rt_busy(self, sched_nothrottle):
        sched = sched_nothrottle
        first = fifo_noise(10.0, name="first")
        sched.submit(first, hint=0)
        second = fifo_noise(0.1, name="second")
        assert sched.submit(second, hint=0) != 0

    def test_other_noise_absorbed_by_idle_cpu(self, sched):
        # Housekeeping absorption: the mask leaves cpu 3 idle, OTHER
        # noise wakes there instead of timesharing a workload CPU.
        for i in range(3):
            sched.submit(Task(f"w{i}", affinity=frozenset({i}), pinned=True), cpu=i)
        noise = Task("kworker", kind=TaskKind.THREAD_NOISE, work=0.1)
        assert sched.submit(noise, hint=0) == 3

    def test_lru_spreads_ties(self, sched):
        # all cpus busy with one spinner each: OTHER noise spreads
        for i in range(4):
            sched.submit(Task(f"w{i}", affinity=frozenset({i}), pinned=True), cpu=i)
        chosen = [sched.submit(Task(f"n{i}", kind=TaskKind.THREAD_NOISE, work=10.0)) for i in range(4)]
        assert sorted(chosen) == [0, 1, 2, 3]


class TestMigration:
    def test_starved_roamer_escapes_to_idle_cpu(self, engine, topo4):
        params = SchedParams()
        sched = Scheduler(engine, topo4, params=params, rt_throttle=False)
        done = {}
        w = Task("w", work=1.0, affinity=frozenset({0, 1}))
        w.on_complete = lambda t: done.setdefault("w", engine.now)
        sched.submit(w, cpu=0)
        engine.schedule(0.2, lambda: sched.submit(fifo_noise(0.5, cpu=0), cpu=0))
        engine.run()
        # 0.2s at full speed, escape latency, then the remaining 0.8 of
        # work with cold caches on the new CPU.
        expected = (
            0.2
            + params.starvation_delay
            + params.migration_cost
            + 0.8 / params.post_migration_speed
        )
        assert done["w"] == pytest.approx(expected, rel=1e-3)
        assert sched.migrations == 1

    def test_pinned_task_waits_out_noise(self, engine, topo4):
        sched = Scheduler(engine, topo4, rt_throttle=False)
        done = {}
        w = Task("w", work=1.0, affinity=frozenset({0}), pinned=True)
        w.on_complete = lambda t: done.setdefault("w", engine.now)
        sched.submit(w, cpu=0)
        engine.schedule(0.2, lambda: sched.submit(fifo_noise(0.5, cpu=0), cpu=0))
        engine.run()
        assert done["w"] == pytest.approx(1.5)
        assert sched.migrations == 0

    def test_shared_migration_is_slower(self, engine):
        # Only busy CPUs available: escape waits for the periodic path.
        topo = Topology(n_physical=2)
        params = SchedParams()
        sched = Scheduler(engine, topo, params=params, rt_throttle=False)
        spin = Task("s", affinity=frozenset({1}), pinned=True)
        sched.submit(spin, cpu=1)
        done = {}
        w = Task("w", work=1.0)
        w.on_complete = lambda t: done.setdefault("w", engine.now)
        sched.submit(w, cpu=0)
        engine.schedule(0.0, lambda: sched.submit(fifo_noise(1.0, cpu=0), cpu=0))
        engine.run()
        # blocked for shared_migration_delay, then timeshares cpu 1
        assert done["w"] > 1.0 + params.shared_migration_delay
        assert sched.migrations >= 1

    def test_spinners_never_migrate(self, engine, topo4):
        sched = Scheduler(engine, topo4, rt_throttle=False)
        spin = Task("s", affinity=frozenset({0, 1}))
        sched.submit(spin, cpu=0)
        noise = fifo_noise(0.2, cpu=0)
        done = {}
        noise.on_complete = lambda t: done.setdefault("n", engine.now)
        sched.submit(noise, cpu=0)
        engine.run()
        assert spin.cpu == 0
        assert sched.migrations == 0


class TestPersistentTasks:
    def test_persistent_task_respawns_as_spinner(self, engine, topo4):
        sched = Scheduler(engine, topo4)
        t = Task("t", affinity=frozenset({0}), pinned=True, persistent=True)
        sched.submit(t, cpu=0)
        completions = []
        t.on_complete = lambda task: completions.append(engine.now)
        sched.assign_work(t, 1.0)
        sched.refresh(t)
        engine.run()
        assert completions == [pytest.approx(1.0)]
        assert t.alive and t.spin and t.cpu == 0

    def test_persistent_task_reusable(self, engine, topo4):
        sched = Scheduler(engine, topo4)
        t = Task("t", affinity=frozenset({0}), pinned=True, persistent=True)
        sched.submit(t, cpu=0)
        completions = []
        t.on_complete = lambda task: completions.append(engine.now)
        sched.assign_work(t, 1.0)
        sched.refresh(t)
        engine.run()
        sched.assign_work(t, 0.5)
        sched.refresh(t)
        engine.run()
        assert completions == [pytest.approx(1.0), pytest.approx(1.5)]

    def test_spin_gap_not_charged_to_new_work(self, engine, topo4):
        # Regression: an early-finishing thread spinning at the barrier
        # must not have the spin time deducted from its next region.
        sched = Scheduler(engine, topo4)
        t = Task("t", affinity=frozenset({0}), pinned=True, persistent=True)
        sched.submit(t, cpu=0)
        done = []
        t.on_complete = lambda task: done.append(engine.now)
        sched.assign_work(t, 0.1)
        sched.refresh(t)
        engine.run()
        # long spin gap
        engine.schedule(5.0, lambda: (sched.assign_work(t, 1.0), sched.refresh(t)))
        engine.run()
        assert done[-1] == pytest.approx(6.0)


class _Counting(Scheduler):
    """Counts `_update` calls, so an arrival can tell whether it took one."""

    def __init__(self, *args, stale_on_arrival=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.updates = 0
        self.updates_at_arrival = 0
        self.stale_on_arrival = stale_on_arrival

    def _update(self, cpus):
        self.updates += 1
        super()._update(cpus)

    def _task_done(self, task):
        self.updates_at_arrival = self.updates
        if task.name == self.stale_on_arrival:
            self._cpus[task.cpu].stale = True
        super()._task_done(task)


class _Reference(_Counting):
    """Every barrier arrival through `_update`: the body of `_task_done`
    before the fast path, as the oracle."""

    def _task_done(self, task):
        if not task.persistent:
            return super()._task_done(task)
        if task.name == self.stale_on_arrival:
            self._cpus[task.cpu].stale = True
        task._completion_event = None
        task.advance(self.engine.now)
        assert task.work_remaining <= scheduler_mod._DONE_EPS
        task.to_spin()
        self._update((task.cpu,))
        task.on_complete(task)


class TestBarrierFastPath:
    """A team thread alone on its CPU reaching a barrier settles in
    `_task_done` without an `_update`, bit for bit as `_update` would."""

    BANDWIDTH = 10.0

    def _region(self, cls, demands, noise_cpu=None, stale_on_arrival=None, penalty=1.0):
        """One static region of streaming pinned team threads, thread i
        on CPU i with ``demands[i]`` and the i-th smallest share of
        work (w0 running at ``penalty``, as after a migration); returns
        per arrival ``(name, settled inline, state)``."""
        engine = Engine()
        sched = cls(
            engine, Topology(n_physical=8, smt=1), memory=MemorySystem(self.BANDWIDTH),
            stale_on_arrival=stale_on_arrival,
        )
        team = [
            Task(f"w{i}", affinity=frozenset({i}), pinned=True, persistent=True)
            for i in range(len(demands))
        ]
        for i, t in enumerate(team):
            sched.submit(t, cpu=i)
        if noise_cpu is not None:
            sched.submit(
                Task("kworker", work=1.0, kind=TaskKind.THREAD_NOISE,
                     affinity=frozenset({noise_cpu})),
                cpu=noise_cpu,
            )
        arrivals = []

        def arrived(t):
            heap = [[(e[0], e[1]) for e in h] for h in (engine._singles, engine._batch)]
            state = (
                t.rate, t._mem_contrib, sched._mem_total, sched._mem_scale,
                sched._mem_rescale_pending, engine._seq, heap,
            )
            arrivals.append((t.name, sched.updates == sched.updates_at_arrival, state))

        for i, (t, d) in enumerate(zip(team, demands)):
            t.on_complete = arrived
            sched.assign_work(t, 1e-3 * (1 + i), mem_demand=d)
        team[0].speed_penalty = penalty
        sched.refresh_many(team)
        engine.run()
        return arrivals, sched

    def _both(self, demands, **kwargs):
        fast, sched = self._region(_Counting, demands, **kwargs)
        reference, _ = self._region(_Reference, demands, **kwargs)
        assert [(n, s) for n, _, s in fast] == [(n, s) for n, _, s in reference]
        return {name: inline for name, inline, _ in fast}, sched

    @staticmethod
    def _first_drift(sched, demands):
        """The drift the first arrival (w0) puts on the running total."""
        scale = sched.memory.scale_for(sum(demands))
        return abs(sched.memory.scale_for(sum(demands[1:])) - scale) / scale

    @pytest.mark.parametrize("penalty", [1.0, 0.97])
    def test_arrival_matches_update_bit_for_bit(self, penalty):
        demands = [20.0 + i for i in range(8)]
        inline, sched = self._both(demands, penalty=penalty)
        # w0..w2 leave 7, 6 and 5 streamers: settled inline; the rest
        # leave 4 or fewer and go through `_update`
        assert [inline[f"w{i}"] for i in range(8)] == [True] * 3 + [False] * 5

    def test_not_with_noise_on_the_cpu(self):
        inline, _ = self._both([20.0 + i for i in range(8)], noise_cpu=0)
        assert not inline["w0"] and inline["w1"]

    def test_not_on_a_stale_cpu(self):
        inline, _ = self._both([20.0 + i for i in range(8)], stale_on_arrival="w0")
        assert not inline["w0"] and inline["w1"]

    def test_not_with_four_streamers_left(self):
        inline, _ = self._both([20.0 + i for i in range(5)])
        assert not any(inline.values())

    @pytest.mark.parametrize("edge", ["0.25", "tol"])
    def test_not_with_drift_within_margin(self, edge):
        # w0's demand x over the others' sum S sets the drift at x / S
        rest = [20.0 + i for i in range(1, 8)]
        tol = SchedParams().mem_rescale_tolerance
        target = 0.25 if edge == "0.25" else tol
        demands = [sum(rest) * (target - scheduler_mod._DRIFT_MARGIN / 2)] + rest
        inline, sched = self._both(demands)
        drift = self._first_drift(sched, demands)
        assert abs(drift - target) < scheduler_mod._DRIFT_MARGIN
        assert not inline["w0"]
        # outside the margin the same arrival settles inline
        demands[0] = sum(rest) * (target - 2 * scheduler_mod._DRIFT_MARGIN)
        inline, _ = self._both(demands)
        assert inline["w0"]


class _TwoLoop(Scheduler):
    """Streamers re-timed in two passes, as the oracle: a scale change
    advances every outside streamer, then runs each through phase 4's
    per-task body; the deferred rescale advances, re-rates and re-times
    through `Task.advance` and `Task.time_to_completion`."""

    def _retime_streamers(self, streamers, pools):
        engine = self.engine
        now = engine.now
        for t in streamers:
            t.advance(now)
        mem_scale = self._mem_scale
        for t in streamers:
            eff = t.cpu_share * mem_scale if t.mem_demand > 0.0 else t.cpu_share
            if t.speed_penalty != 1.0:
                eff *= t.speed_penalty
            rate_changed = eff != t.rate
            t.rate = eff
            if t._run_started is None and eff > 0.0:
                t._run_started = now
            if t.pool is not None:
                if rate_changed:
                    pools = {} if pools is None else pools
                    pools[id(t.pool)] = t.pool
            elif rate_changed or (t._completion_event is None and t.work_remaining is not None):
                ev = t._completion_event
                wr = t.work_remaining
                if wr is not None and eff > 0.0:
                    if ev is not None:
                        engine.restage(ev, now + wr / eff)
                    else:
                        t._completion_event = engine.stage(now + wr / eff, self._task_done, t)
                elif ev is not None:
                    ev.cancel()
                    t._completion_event = None
        return pools

    def _apply_mem_rescale(self):
        self._mem_rescale_pending = False
        engine = self.engine
        now = engine.now
        live = [
            t
            for t in sorted(self._mem_running.values(), key=lambda t: t.tid)
            if t.alive and t.cpu is not None
        ]
        total = 0.0
        for t in live:
            total += t.mem_demand * t.cpu_share
        new_scale = self.memory.scale_for(total)
        if abs(new_scale - self._mem_scale) / self._mem_scale <= 1e-12:
            return
        self._mem_scale = new_scale
        pools = {}
        for t in live:
            t.advance(now)
            rate = t.cpu_share * new_scale
            if t.speed_penalty != 1.0:
                rate *= t.speed_penalty
            t.rate = rate
            if t.pool is not None:
                pools[id(t.pool)] = t.pool
                continue
            ev = t._completion_event
            ttc = t.time_to_completion()
            if ttc is None:
                self._cancel_completion(t)
            elif ev is not None:
                engine.restage(ev, now + ttc)
            else:
                t._completion_event = engine.stage(now + ttc, self._task_done, t)
        engine.flush()
        for pool in pools.values():
            self._reschedule_pool(pool)


class _Fused(Scheduler):
    """Records the streamers each fused re-timing pass takes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.passes = []

    def _retime_streamers(self, streamers, pools):
        self.passes.append([t.name for t in streamers])
        return super()._retime_streamers(streamers, pools)


class TestFusedRetiming:
    """A memory-scale change re-times the streamers it did not touch in
    one fused pass, and the deferred rescale goes through the same pass;
    both leave the state of the two-pass oracle, bit for bit."""

    def _run(self, cls, demand):
        """Six pinned streamers (s1 at a 0.97 speed penalty) and a
        two-member pool, all at 20 GB/s on 100 GB/s; at t=0.1, s0's
        demand becomes ``demand``.  Returns the state after that
        change, after its deferred rescale, and the completion times."""
        engine = Engine()
        sched = cls(engine, Topology(n_physical=8, smt=1), memory=MemorySystem(100.0))
        done = {}

        def finish(owner):
            done.setdefault(owner.name, engine.now)

        pool = WorkPool("pool", 1.5, on_drained=finish)
        tasks = []
        for i in range(6):
            t = Task(f"s{i}", work=1.0 + 0.125 * i, mem_demand=20.0,
                     affinity=frozenset({i}), pinned=True, on_complete=finish)
            if i == 1:
                t.speed_penalty = 0.97
            tasks.append(t)
        for j in range(2):
            t = Task(f"p{j}", affinity=frozenset({6 + j}), pinned=True)
            t.join_pool(pool, mem_demand=20.0)
            tasks.append(t)
        for i, t in enumerate(tasks):
            sched.submit(t, cpu=i)
        sched.register_pool(pool)

        def snapshot():
            heap = [sorted((e[0], e[1]) for e in h) for h in (engine._singles, engine._batch)]
            per_task = [
                (t.rate, t.work_remaining, t.total_cpu_time, t._last_update) for t in tasks
            ]
            return per_task, pool.work_remaining, sched._mem_scale, engine._seq, heap

        engine.run(until=0.1)
        sched.passes_before = len(getattr(sched, "passes", ()))
        sched.assign_work(tasks[0], 1.0, mem_demand=demand)
        sched.refresh(tasks[0])
        sched.seqs_at_change = [t._completion_event.seq for t in tasks[:6]]
        after_change = snapshot()
        pending = sched._mem_rescale_pending
        engine.run(until=0.1 + 2 * sched.params.mem_rescale_delay)
        after_rescale = snapshot()
        engine.run()
        return (after_change, pending, after_rescale, done), sched

    def test_scale_change_matches_two_passes(self):
        # 20 -> 200 GB/s: a drift of about 0.53, applied at once
        fused, sched = self._run(_Fused, 200.0)
        reference, _ = self._run(_TwoLoop, 200.0)
        assert fused == reference
        assert not fused[1]
        # s0 was touched; the others are re-timed in tid order, after it
        assert sched.passes[sched.passes_before] == ["s1", "s2", "s3", "s4", "s5", "p0", "p1"]
        assert sched.seqs_at_change == sorted(sched.seqs_at_change)

    def test_deferred_rescale_matches_two_passes(self):
        # 20 -> 24 GB/s: a drift of about 2.4%, deferred
        fused, sched = self._run(_Fused, 24.0)
        reference, _ = self._run(_TwoLoop, 24.0)
        assert fused == reference
        assert fused[1]  # the change armed the deferred rescale
        assert fused[0][2] != fused[2][2]  # which changed the scale
        assert sched.passes[sched.passes_before] == ["s0", "s1", "s2", "s3", "s4", "s5", "p0", "p1"]

    def test_arrival_retimes_the_whole_pool_in_tid_order(self):
        # Thread w_i sits on CPU 7 - i, so the pool's insertion (CPU)
        # order is the reverse of tid order.  w0 and w1 finish together:
        # w0 leaves 7 streamers, a drift of 1/7 settled inline; w1
        # leaves 6, a drift of 1/3 from the scale still in force.
        engine = Engine()
        sched = _Fused(engine, Topology(n_physical=8, smt=1), memory=MemorySystem(100.0))
        team = [Task(f"w{i}", affinity=frozenset({7 - i}), pinned=True, persistent=True)
                for i in range(8)]
        for i, t in enumerate(team):
            sched.submit(t, cpu=7 - i)
        for i, t in enumerate(team):
            sched.assign_work(t, 1.0 if i < 2 else 2.0 + i, mem_demand=20.0)
        sched.refresh_many(team)
        passes = len(sched.passes)
        engine.run(until=2.0)
        assert sched.passes[passes] == ["w2", "w3", "w4", "w5", "w6", "w7"]

    def test_region_start_skips_the_scan(self):
        # Every streamer touched: nothing is left outside to re-time.
        engine = Engine()
        sched = _Fused(engine, Topology(n_physical=8, smt=1), memory=MemorySystem(100.0))
        team = [Task(f"w{i}", affinity=frozenset({i}), pinned=True, persistent=True)
                for i in range(8)]
        for i, t in enumerate(team):
            sched.submit(t, cpu=i)
        for t in team:
            sched.assign_work(t, 1.0, mem_demand=20.0)
        sched.refresh_many(team)
        assert sched._mem_scale == 100.0 / 160.0
        assert sched.passes == []


class TestWorkPools:
    def test_pool_drains_at_combined_rate(self, engine, topo4):
        sched = Scheduler(engine, topo4)
        done = []
        pool = WorkPool("p", 4.0, on_drained=lambda p: done.append(engine.now))
        for i in range(4):
            t = Task(f"t{i}", affinity=frozenset({i}), pinned=True)
            t.join_pool(pool)
            sched.submit(t, cpu=i)
        sched.register_pool(pool)
        engine.run()
        assert done == [pytest.approx(1.0)]

    def test_pool_absorbs_preempted_member(self, engine, topo4):
        sched = Scheduler(engine, topo4, rt_throttle=False)
        done = []
        pool = WorkPool("p", 4.0, on_drained=lambda p: done.append(engine.now))
        for i in range(4):
            t = Task(f"t{i}", affinity=frozenset({i}), pinned=True)
            t.join_pool(pool)
            sched.submit(t, cpu=i)
        sched.register_pool(pool)
        engine.schedule(0.5, lambda: sched.submit(fifo_noise(0.2, cpu=0), cpu=0))
        engine.run()
        # one member loses 0.2 cpu-s; others soak it up: 1.0 + 0.2/4
        assert done == [pytest.approx(1.05)]

    def test_detach_pool_returns_members_to_spin(self, engine, topo4):
        sched = Scheduler(engine, topo4)
        pool = WorkPool("p", 1.0)
        members = []
        for i in range(2):
            t = Task(f"t{i}", affinity=frozenset({i}), pinned=True)
            t.join_pool(pool)
            members.append(t)
            sched.submit(t, cpu=i)
        sched.detach_pool(pool)
        assert all(t.spin for t in members)
        assert pool.members == []

    def test_drained_fires_exactly_once(self, engine, topo4):
        sched = Scheduler(engine, topo4)
        fired = []
        pool = WorkPool("p", 0.5, on_drained=lambda p: fired.append(engine.now))
        t = Task("t", affinity=frozenset({0}), pinned=True)
        t.join_pool(pool)
        sched.submit(t, cpu=0)
        sched.register_pool(pool)
        engine.run()
        assert len(fired) == 1


class TestSteal:
    def test_steal_slows_cpu(self, sched):
        sched.set_steal(0, 0.5)
        t = Task("t", work=1.0, affinity=frozenset({0}), pinned=True)
        done = run_tasks(sched, t)
        assert done["t"] == pytest.approx(2.0)

    def test_steal_bounds_checked(self, sched):
        with pytest.raises(ValueError):
            sched.set_steal(0, 1.0)
        with pytest.raises(ValueError):
            sched.set_steal(0, -0.1)


class TestNoiseHook:
    def test_noise_interval_reported(self, engine, topo4):
        records = []
        sched = Scheduler(
            engine,
            topo4,
            rt_throttle=False,
            on_noise_interval=lambda t, c, s, d: records.append((t.name, c, s, d)),
        )
        n = fifo_noise(0.25, cpu=1, name="irq")
        sched.submit(n, cpu=1)
        engine.run()
        assert len(records) == 1
        name, cpu, start, dur = records[0]
        assert name == "irq" and cpu == 1
        assert dur == pytest.approx(0.25)

    def test_workload_tasks_not_reported(self, engine, topo4):
        records = []
        sched = Scheduler(
            engine, topo4, on_noise_interval=lambda *a: records.append(a)
        )
        t = Task("w", work=0.1, affinity=frozenset({0}), pinned=True)
        sched.submit(t, cpu=0)
        engine.run()
        assert records == []

    def test_other_noise_reports_cpu_time_not_wall(self, engine, topo4):
        # Timeshared thread noise reports actual CPU consumption.
        records = []
        sched = Scheduler(
            engine, topo4, on_noise_interval=lambda t, c, s, d: records.append(d)
        )
        spin = Task("w", affinity=frozenset({0}), pinned=True)
        sched.submit(spin, cpu=0)
        noise = Task(
            "kw", kind=TaskKind.THREAD_NOISE, work=0.5, affinity=frozenset({0})
        )
        sched.submit(noise, cpu=0)
        engine.run()
        assert records == [pytest.approx(0.5)]


class TestKeptShares:
    """`_update` recomputes shares only on CPUs whose queues, steal or
    sibling busy-ness changed; every other CPU keeps its tasks' shares.
    After each update, every placed task's share must equal the one a
    fresh computation gives, bit for bit."""

    @staticmethod
    def _fresh_shares(sched, cpu):
        state = sched._cpus[cpu]
        speed = 1.0 - state.steal
        sib = sched._sibling[cpu]
        if sib is not None and state.busy() and sched._cpus[sib].busy():
            speed *= sched.params.smt_factor
        shares = []
        if state.fifo:
            fifo_share = sched.params.rt_throttle_share if sched.rt_throttle else 1.0
            shares.append((state.fifo[0], speed * fifo_share))
            shares += [(t, 0.0) for t in state.fifo[1:]]
            speed *= 1.0 - fifo_share
        total_w = 0.0
        for t in state.other:
            total_w += t.weight
        shares += [(t, speed * t.weight / total_w) for t in state.other]
        return shares

    def test_migration_rerates_the_tasks_left_behind(self, engine, topo4):
        sched = Scheduler(engine, topo4)  # FIFO throttled to 95%
        sched.submit(fifo_noise(1.0, cpu=0), cpu=0)
        a = Task("a", work=1.0, affinity=frozenset({0}), pinned=True)
        b = Task("b", work=1.0)
        sched.submit(a, cpu=0)
        sched.submit(b, cpu=0)
        assert a.cpu_share == b.cpu_share == (1.0 - 0.95) / 2
        sched._migrate(b, 1)
        assert a.cpu_share == 1.0 - 0.95

    def test_steal_many_restamps_every_cpu(self, sched):
        tasks = [Task(f"t{i}", work=1.0, affinity=frozenset({i}), pinned=True) for i in range(4)]
        for i, t in enumerate(tasks):
            sched.submit(t, cpu=i)
        sched.set_steal_many({1: 0.25, 3: 0.5})
        assert [t.rate for t in tasks] == [1.0, 0.75, 1.0, 0.5]

    @pytest.mark.parametrize(
        "case", build_cases(), ids=[c["name"] for c in build_cases()]
    )
    def test_kept_shares_equal_fresh_ones(self, monkeypatch, case):
        update = Scheduler._update
        checked = [0]

        def checked_update(self, cpus):
            update(self, cpus)
            for cpu in range(len(self._cpus)):
                for t, share in TestKeptShares._fresh_shares(self, cpu):
                    assert t.cpu_share == share, (self.engine.now, cpu, t)
            checked[0] += 1

        monkeypatch.setattr(Scheduler, "_update", checked_update)
        kwargs = {k: v for k, v in case.items() if k not in ("name", "noise")}
        run_experiment(
            ExperimentSpec(reps=1, **kwargs), noise=_noise(case.get("noise")),
            executor=SerialExecutor(),
        )
        assert checked[0] > 0


# ----------------------------------------------------------------------
# placement equivalence: the cached idle count and queue weights against
# the scans they replaced
# ----------------------------------------------------------------------
def _scan_pick_cpu_multi(sched, task, hint, allowed):
    """`Scheduler._pick_cpu_multi` as a scan over every allowed CPU."""
    cpus, stamp = sched._cpus, sched._placed_stamp
    if task.policy is SchedPolicy.FIFO and hint is not None and hint in allowed:
        if not cpus[hint].fifo:
            return hint
    idle = [c for c in allowed if not cpus[c].busy()]
    if idle:
        if hint is not None and hint in idle:
            return hint

        def idle_key(c):
            sib = sched._sibling[c]
            return (sib is not None and cpus[sib].busy(), stamp[c], c)

        return min(idle, key=idle_key)
    if task.policy is SchedPolicy.FIFO:
        return min(allowed, key=lambda c: (
            len(cpus[c].fifo), len(cpus[c].other), c != hint, stamp[c], c))

    def other_key(c):
        total_w = 0.0
        for t in cpus[c].other:
            total_w += t.weight
        return (bool(cpus[c].fifo), total_w, c != hint, stamp[c], c)

    return min(allowed, key=other_key)


def _scan_best_migration_target(sched, task):
    cur = task.cpu
    home_node = sched._numa[cur] if cur is not None else 0
    best = best_key = None
    for c in sched._allowed(task):
        state = sched._cpus[c]
        if c == cur or state.fifo:
            continue
        total_w = 0.0
        for t in state.other:
            total_w += t.weight
        total_w += task.weight
        share = sched._cpu_speed_if_joined(c) * task.weight / total_w
        key = (-(share * (0.7 if sched._numa[c] != home_node else 1.0)), c)
        if share > 1e-12 and (best_key is None or key < best_key):
            best_key, best = key, c
    return best


def _scan_starvation_target(sched, task, starved_for):
    idle = [c for c in sched._allowed(task) if c != task.cpu and not sched._cpus[c].busy()]
    if idle:
        return min(idle, key=lambda c: (sched._placed_stamp[c], c))
    if starved_for >= sched.params.shared_migration_delay:
        return _scan_best_migration_target(sched, task)
    return None


_N_SMT = 8  # Topology(n_physical=4, smt=2)
_AFFINITY = st.one_of(
    st.none(), st.frozensets(st.integers(0, _N_SMT - 1), min_size=1, max_size=4)
)
_TASK = st.tuples(
    st.sampled_from([SchedPolicy.OTHER, SchedPolicy.OTHER, SchedPolicy.FIFO]),
    st.sampled_from([0.1, 0.3, 1.0, 1.7, 3.0]),  # weights whose sums round
    _AFFINITY,
    st.one_of(st.none(), st.integers(0, _N_SMT - 1)),  # hint
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _TASK, st.integers(1, 6)),  # copies
        st.tuples(st.just("remove"), st.integers(0, 1000), st.none()),
        st.tuples(st.just("migrate"), st.integers(0, 1000), st.integers(0, _N_SMT - 1)),
        st.tuples(st.just("run"), st.integers(1, 40), st.none()),  # in 50 us steps
        st.tuples(st.just("pin"), _TASK, st.integers(0, _N_SMT - 1)),  # on an explicit CPU
    ),
    min_size=1,
    max_size=40,
)


class TestPlacementEquivalence:
    """After every submit, remove, migration or stretch of run time on
    a 4x2 SMT machine, placement, migration targets and starvation
    targets read from the cached idle count and queue weights equal the
    full scans, for probe tasks of both classes."""

    @staticmethod
    def _task(spec, n):
        policy, weight, affinity, _ = spec
        fifo = policy is SchedPolicy.FIFO
        return Task(
            f"t{n}", policy=policy, rt_priority=50 if fifo else 0, weight=weight,
            affinity=affinity, work=1e-3 if fifo else 1.0,
            kind=TaskKind.IRQ_NOISE if fifo else TaskKind.WORKLOAD,
        )

    @staticmethod
    def _compare(sched, probes):
        assert sched._n_idle == sum(1 for s in sched._cpus if not s.busy())
        for probe, (_, _, _, hint) in probes:
            allowed = sched._allowed(probe)
            assert sched._pick_cpu_multi(probe, hint, allowed) == _scan_pick_cpu_multi(
                sched, probe, hint, allowed
            )
        delay = sched.params.shared_migration_delay
        for state in sched._cpus:
            for t in state.fifo + state.other:
                assert sched._best_migration_target(t) == _scan_best_migration_target(sched, t)
                for starved_for in (0.0, delay):
                    assert sched._starvation_target(t, starved_for) == _scan_starvation_target(
                        sched, t, starved_for
                    )

    @settings(max_examples=120, deadline=None)
    @given(
        load=st.lists(_TASK, max_size=12),
        steps=_STEPS,
        probes=st.lists(_TASK, min_size=1, max_size=4),
    )
    def test_cached_load_places_like_the_scans(self, load, steps, probes):
        engine = Engine()
        sched = CheckedScheduler(engine, Topology(n_physical=4, smt=2))
        probes = [(self._task(spec, -1), spec) for spec in probes]
        tasks = []
        for spec in load:
            tasks.append(self._task(spec, len(tasks)))
            sched.submit(tasks[-1], hint=spec[3])
        self._compare(sched, probes)
        for kind, a, b in steps:
            placed = [t for t in tasks if t.cpu is not None]
            if kind == "submit":
                for _ in range(b):
                    tasks.append(self._task(a, len(tasks)))
                    sched.submit(tasks[-1], hint=a[3])
            elif kind == "pin":
                tasks.append(self._task((a[0], a[1], frozenset({b}), None), len(tasks)))
                sched.submit(tasks[-1], cpu=b)
            elif kind == "remove" and placed:
                sched.remove(placed[a % len(placed)])
            elif kind == "migrate" and placed:
                t = placed[a % len(placed)]
                if b != t.cpu and (t.affinity is None or b in t.affinity):
                    sched._migrate(t, b)
                    sched._finish_migration(t, b)
            elif kind == "run":
                engine.run(until=engine.now + a * 50e-6)
            self._compare(sched, probes)
