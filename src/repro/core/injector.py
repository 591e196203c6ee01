"""Noise injection during workload execution (paper §4.3, Listing 1).

One injector process per configured logical CPU.  Each process walks
its event list in order: switch scheduling policy if the next event
needs a different one (a real ``sched_setscheduler`` call, modelled as
a small latency), sleep until the event's start time, then occupy a CPU
for the event's duration.  Injector processes deliberately carry **no
CPU affinity** (paper §4.3): if the workload leaves cores free —
housekeeping — the OS places the noise there, which is exactly the
mitigation the paper measures.

Injection runs disable the RT-throttling fail-safe so SCHED_FIFO events
can occupy 100% of a CPU (the harness sets ``rt_throttle=False``).
Early termination is implicit: when the workload signals completion the
machine's event loop stops, abandoning any noise not yet replayed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.sim.machine import Machine
from repro.sim.task import SchedPolicy, Task, TaskKind

__all__ = ["NoiseInjector"]

_ETYPE_TO_KIND = {
    EventType.IRQ: TaskKind.IRQ_NOISE,
    EventType.SOFTIRQ: TaskKind.SOFTIRQ_NOISE,
    EventType.THREAD: TaskKind.THREAD_NOISE,
}

#: sched_setscheduler syscall latency when an event changes policy
_POLICY_SWITCH_COST = 2e-6


class _InjectorProcess:
    """Replays one CPU's event list (Listing 1's loop)."""

    def __init__(self, injector: "NoiseInjector", home_cpu: int, events: list[ConfigEvent]):
        self.injector = injector
        self.home_cpu = home_cpu
        self.events = events
        self._idx = 0
        self._policy: Optional[str] = None

    def start(self, machine: Machine) -> None:
        self.machine = machine
        self._next()

    def _next(self) -> None:
        i = self._idx
        if i >= len(self.events):
            return
        event = self.events[i]
        start = event.start
        now = self.machine.engine.now
        policy = event.policy
        if self._policy != policy:
            # SetPolicy() before SleepUntil() (Listing 1): the switch
            # happens while waiting, but a switch landing exactly on
            # the event start delays it slightly.
            self._policy = policy
            switched = now + _POLICY_SWITCH_COST
            if switched > start:
                start = switched
        if now > start:
            start = now
        self.machine.engine.schedule(start, self._fire, i)

    def _fire(self, i: int) -> None:
        self._idx = i + 1
        event = self.events[i]
        duration = event.duration
        fifo = event.policy == "SCHED_FIFO"
        task = Task(
            f"inject:{event.source}",
            policy=SchedPolicy.FIFO if fifo else SchedPolicy.OTHER,
            rt_priority=event.rt_priority if fifo else 0,
            weight=event.weight,
            affinity=None,  # injector processes roam (§4.3)
            kind=_ETYPE_TO_KIND[event.etype],
            work=duration,
            on_complete=self._done,
        )
        self.injector.injected_events += 1
        self.injector.injected_busy += duration
        self.machine.scheduler.submit(task, hint=self.home_cpu)

    def _done(self, task: Task) -> None:
        self._next()


class NoiseInjector:
    """Spawns one injector process per configured CPU on launch.

    All processes and the workload synchronise at a barrier before the
    run (§4.3) — in simulation both start at t=0, which is that barrier.
    """

    def __init__(self, config: NoiseConfig):
        if config.n_events == 0:
            raise ValueError("refusing to inject an empty noise configuration")
        self.config = config
        self.injected_events = 0
        self.injected_busy = 0.0
        self._launched = False

    def launch(self, machine: Machine) -> None:
        """Arm every injector process at the current (barrier) time."""
        if self._launched:
            raise RuntimeError("injector instances are single-use")
        self._launched = True
        for cpu, events in sorted(self.config.events_per_cpu.items()):
            _InjectorProcess(self, cpu, events).start(machine)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NoiseInjector {self.config!r} injected={self.injected_events}>"
