"""NUMA-aware scheduling tests (the §6 extrapolation substrate)."""

import pytest

from repro.sim.cpu import Topology
from repro.sim.engine import Engine
from repro.sim import scheduler as scheduler_mod
from repro.sim.scheduler import Scheduler
from repro.sim.task import SchedPolicy, Task, TaskKind


def fifo_noise(duration, cpu):
    return Task(
        "noise",
        policy=SchedPolicy.FIFO,
        rt_priority=90,
        kind=TaskKind.IRQ_NOISE,
        work=duration,
        affinity=frozenset({cpu}),
    )


@pytest.fixture
def numa_topo():
    # 2 nodes x 4 cores
    return Topology(n_physical=8, numa_nodes=2)


class TestNumaMigration:
    def test_local_escape_preferred(self, numa_topo):
        """A starved thread moves within its node when possible."""
        engine = Engine()
        sched = Scheduler(engine, numa_topo, rt_throttle=False)
        w = Task("w", work=1.0)
        sched.submit(w, cpu=0)
        # cpus 1-3 (same node) idle; noise blocks cpu 0
        engine.schedule(0.1, lambda: sched.submit(fifo_noise(0.5, 0), cpu=0))
        engine.run(until=0.4)  # after the starvation escape, before completion
        assert w.cpu in (1, 2, 3)

    def test_cross_node_migration_costs_more(self, numa_topo):
        """Same scenario, but the only free CPUs are on the far node."""
        results = {}
        for label, busy_cpus in (("local", [1, 2, 3]), ("remote", [1, 2, 3])):
            engine = Engine()
            sched = Scheduler(engine, numa_topo, rt_throttle=False)
            done = {}
            if label == "remote":
                # occupy the rest of node 0 with pinned spinners so the
                # starved thread must cross to node 1
                for c in busy_cpus:
                    sched.submit(Task(f"s{c}", affinity=frozenset({c}), pinned=True), cpu=c)
                # and node-1 spinners too, except cpu 4 left idle
                for c in (5, 6, 7):
                    sched.submit(Task(f"s{c}", affinity=frozenset({c}), pinned=True), cpu=c)
            w = Task("w", work=1.0)
            w.on_complete = lambda t: done.setdefault("w", engine.now)
            sched.submit(w, cpu=0)
            engine.schedule(0.1, lambda: sched.submit(fifo_noise(0.8, 0), cpu=0))
            engine.run()
            results[label] = done["w"]
        # remote escape pays the bigger hop latency AND runs the rest of
        # its work against remote memory
        remaining = 0.9
        expected_gap = (
            scheduler_mod.NUMA_MIGRATION_COST
            - scheduler_mod.MIGRATION_COST
            + remaining / scheduler_mod.NUMA_REMOTE_SPEED
            - remaining / scheduler_mod.POST_MIGRATION_SPEED
        )
        assert results["remote"] - results["local"] == pytest.approx(expected_gap, rel=0.05)

    def test_remote_share_discounted(self, numa_topo):
        """With equal shares available, the balancer stays on-node."""
        engine = Engine()
        sched = Scheduler(engine, numa_topo, rt_throttle=False)
        # One co-runner on local cpu 1 and one on remote cpu 4: shares
        # identical, so the discount should keep the migration local.
        sched.submit(Task("l", affinity=frozenset({1}), pinned=True), cpu=1)
        sched.submit(Task("r", affinity=frozenset({4}), pinned=True), cpu=4)
        for c in (2, 3, 5, 6, 7):
            sched.submit(Task(f"s{c}", affinity=frozenset({c}), pinned=True), cpu=c)
        w = Task("w", work=0.5)
        sched.submit(w, cpu=0)
        engine.schedule(0.0, lambda: sched.submit(fifo_noise(2.0, 0), cpu=0))
        engine.run(until=1.0)
        assert w.cpu == 1

    def test_numa_node_lookup_consistency(self, numa_topo):
        for c in range(8):
            assert numa_topo.numa_node(c) == (0 if c < 4 else 1)
