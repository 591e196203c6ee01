"""Whole-run invariant checker for the simulator (test side only).

:class:`CheckedScheduler` is a :class:`Scheduler` that checks the
model's invariants after every ``_update``, after every
``_task_done``, which covers the barrier arrivals that settle without
an ``_update``, and after every deferred rescale
(``_apply_mem_rescale``), which re-rates the streamers as an event of
its own.  :func:`install` makes every :class:`Machine` built
afterwards use it, by monkeypatching ``repro.sim.machine.Scheduler``;
the production class has no branch for it and pays nothing.

The invariants, each after every checked call:

* per-CPU capacity: the shares on a CPU sum to at most ``1 - steal``,
  times ``SMT_FACTOR`` while the sibling is busy;
* FIFO preempts OTHER: a FIFO head leaves the OTHER tasks at most
  ``1 - RT_THROTTLE_SHARE`` of that capacity (nothing without
  throttling), and queued FIFO tasks behind it get no share;
* every task sits on the CPU it names, inside its affinity;
* the idle count ``_n_idle`` is the number of CPUs with empty queues,
  the crowded count ``_n_crowded`` the number holding a FIFO task or
  more than one OTHER task, and each CPU's cached ``weight`` is the left-to-right sum of its
  OTHER tasks' weights, float for float;
* no busy CPU is left stale, and (with SMT) each CPU's recorded
  busy-ness is its real one;
* the clock never goes back;
* every streaming task is alive and placed, with a positive demand
  and share, and the contribution it was last counted with
  (``_mem_contrib``) is its demand times its share, bit for bit;
* the running memory-demand total ``_mem_total`` is within 1e-9
  (relative) of the exact sum over the streaming tasks;
* every placed task's rate is ``cpu_share`` times ``_mem_scale`` (if it
  streams) times ``speed_penalty``, bit for bit;
* no staged engine entry is left unflushed, and the engine's dead
  entry count ``_n_cancelled`` is the number of dead entries in its
  two heaps together.
"""

from __future__ import annotations

from repro.sim import machine as machine_mod
from repro.sim import scheduler as scheduler_mod
from repro.sim.scheduler import Scheduler

__all__ = ["CheckedScheduler", "install"]

_SHARE_EPS = 1e-12


class CheckedScheduler(Scheduler):
    """A :class:`Scheduler` that asserts its invariants as it runs."""

    #: checks passed, over all instances (reset by :func:`install`)
    checks = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._checked_now = self.engine.now

    def _update(self, cpus) -> None:
        super()._update(cpus)
        self.check()

    def _task_done(self, task) -> None:
        super()._task_done(task)
        self.check()

    def _apply_mem_rescale(self) -> None:
        super()._apply_mem_rescale()
        self.check()

    def check(self) -> None:
        engine = self.engine
        now = engine.now
        assert now >= self._checked_now, f"clock went back: {self._checked_now!r} -> {now!r}"
        self._checked_now = now
        assert not engine._staged, f"t={now!r}: {len(engine._staged)} staged entries not flushed"
        dead = sum(e[1] != e[2].seq for e in engine._singles + engine._batch)
        assert engine._n_cancelled == dead, (
            f"t={now!r}: engine counts {engine._n_cancelled} dead entries, holds {dead}"
        )
        mem_scale = self._mem_scale
        idle = crowded = 0
        for c, state in enumerate(self._cpus):
            where = f"t={now!r} cpu {c}"
            busy = bool(state.fifo or state.other)
            idle += not busy
            crowded += bool(state.fifo) or len(state.other) > 1
            assert not (busy and state.stale), f"{where}: busy but left stale"
            weight = 0.0
            for t in state.other:
                weight += t.weight
            assert state.weight == weight, f"{where}: cached weight {state.weight!r}, sum {weight!r}"
            sib = self._sibling[c]
            if sib is not None:
                assert self._last_busy[c] == busy, f"{where}: busy-ness record out of date"
            speed = 1.0 - state.steal
            if sib is not None and busy and self._cpus[sib].busy():
                speed *= scheduler_mod.SMT_FACTOR
            total = 0.0
            for t in state.fifo + state.other:
                assert t.cpu == c, f"{where}: queues {t!r}"
                assert t.affinity is None or c in t.affinity, f"{where}: outside affinity {t!r}"
                total += t.cpu_share
                rate = t.cpu_share * mem_scale if t.mem_demand > 0.0 else t.cpu_share
                if t.speed_penalty != 1.0:
                    rate *= t.speed_penalty
                assert t.rate == rate, f"{where}: {t!r} rate {t.rate!r}, expected {rate!r}"
            assert total <= speed + _SHARE_EPS, f"{where}: shares {total!r} > capacity {speed!r}"
            if state.fifo:
                fifo_share = scheduler_mod.RT_THROTTLE_SHARE if self.rt_throttle else 1.0
                for t in state.fifo[1:]:
                    assert t.cpu_share == 0.0, f"{where}: queued FIFO task runs: {t!r}"
                other = sum(t.cpu_share for t in state.other)
                assert other <= speed * (1.0 - fifo_share) + _SHARE_EPS, (
                    f"{where}: OTHER tasks hold {other!r} beside a FIFO head"
                )
        assert self._n_idle == idle, f"t={now!r}: idle count {self._n_idle}, {idle} idle CPUs"
        assert self._n_crowded == crowded, (
            f"t={now!r}: crowded count {self._n_crowded}, {crowded} crowded CPUs"
        )
        exact = 0.0
        for t in self._mem_running.values():
            assert t.alive and t.cpu is not None, f"t={now!r}: streamer {t!r} left its CPU"
            assert t.mem_demand > 0.0 and t.cpu_share > 0.0, f"t={now!r}: streamer {t!r} idle"
            contrib = t.mem_demand * t.cpu_share
            assert t._mem_contrib == contrib, (
                f"t={now!r}: streamer {t!r} counted {t._mem_contrib!r}, contributes {contrib!r}"
            )
            exact += contrib
        assert abs(self._mem_total - exact) <= 1e-9 * max(1.0, exact), (
            f"t={now!r}: running total {self._mem_total!r}, exact sum {exact!r}"
        )
        CheckedScheduler.checks += 1


def install(monkeypatch) -> type[CheckedScheduler]:
    """Make every Machine built from now on use :class:`CheckedScheduler`."""
    CheckedScheduler.checks = 0
    monkeypatch.setattr(machine_mod, "Scheduler", CheckedScheduler)
    return CheckedScheduler
