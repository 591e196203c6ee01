"""Task and work-pool models.

A :class:`Task` is anything the scheduler can place on a logical CPU:
a workload thread, an injected noise process, a kworker, or an
interrupt-like kernel activity.  Tasks progress through *work*,
expressed in seconds of CPU time at nominal (factor 1.0) speed, and
integrate progress lazily between scheduler events.

A :class:`WorkPool` models dynamically-scheduled parallel work — an
OpenMP ``dynamic``/``guided`` loop or a SYCL kernel ND-range executed by
a work-stealing thread pool.  Member tasks drain a shared amount of
work at the sum of their individual rates; this is what gives
dynamically-scheduled runtimes their resilience to noise (a preempted
worker's chunks are simply picked up by the others).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

__all__ = ["SchedPolicy", "TaskKind", "Task", "WorkPool"]

_task_ids = itertools.count(1)


class SchedPolicy(enum.Enum):
    """Scheduling classes modelled after Linux.

    ``FIFO`` strictly preempts ``OTHER`` on the same CPU — the property
    the paper's injector relies on to replay interrupt-class noise with
    exact timing.
    """

    OTHER = "SCHED_OTHER"
    FIFO = "SCHED_FIFO"


class TaskKind(enum.Enum):
    """What a task represents; the tracer records only noise kinds."""

    WORKLOAD = "workload"
    THREAD_NOISE = "thread_noise"
    IRQ_NOISE = "irq_noise"
    SOFTIRQ_NOISE = "softirq_noise"


class Task:
    """A schedulable entity.

    Parameters
    ----------
    name:
        Human-readable identity; for noise tasks this is the *source*
        string recorded in traces (e.g. ``kworker/3:1``).
    policy, rt_priority:
        Scheduling class and (for FIFO) real-time priority, higher wins.
    weight:
        Fair-share weight among OTHER tasks on one CPU (CFS nice level
        analogue).  The improved injector raises this for thread-noise.
    affinity:
        Allowed logical CPUs, or ``None`` for "anywhere".
    pinned:
        If true the task never migrates after placement (models strict
        thread pinning; affinity alone still allows load balancing).
    work:
        Seconds of CPU time to consume, or ``None`` for a spinning /
        pool-member task that never self-completes.
    mem_demand:
        Memory bandwidth (GB/s) the task would consume at full speed;
        used by :class:`repro.sim.memory.MemorySystem`.
    """

    __slots__ = (
        "tid",
        "name",
        "policy",
        "rt_priority",
        "weight",
        "affinity",
        "pinned",
        "kind",
        "work_remaining",
        "spin",
        "mem_demand",
        "pool",
        "on_complete",
        "cpu",
        "rate",
        "cpu_share",
        "_mem_contrib",
        "speed_penalty",
        "_last_update",
        "_completion_event",
        "_run_started",
        "total_cpu_time",
        "alive",
        "persistent",
    )

    def __init__(
        self,
        name: str,
        *,
        policy: SchedPolicy = SchedPolicy.OTHER,
        rt_priority: int = 0,
        weight: float = 1.0,
        affinity: Optional[frozenset[int]] = None,
        pinned: bool = False,
        kind: TaskKind = TaskKind.WORKLOAD,
        work: Optional[float] = None,
        mem_demand: float = 0.0,
        pool: Optional["WorkPool"] = None,
        on_complete: Optional[Callable[["Task"], None]] = None,
        persistent: bool = False,
    ):
        if work is not None and work < 0:
            raise ValueError(f"negative work: {work!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive: {weight!r}")
        if policy is SchedPolicy.FIFO and not 1 <= rt_priority <= 99:
            raise ValueError("FIFO tasks need rt_priority in [1, 99]")
        self.tid = next(_task_ids)
        self.name = name
        self.policy = policy
        self.rt_priority = rt_priority
        self.weight = float(weight)
        self.affinity = frozenset(affinity) if affinity is not None else None
        self.pinned = bool(pinned)
        self.kind = kind
        self.work_remaining = work
        #: spinning tasks are runnable but consume no accountable work
        self.spin = work is None and pool is None
        self.mem_demand = float(mem_demand)
        self.pool = pool
        self.on_complete = on_complete
        #: current logical CPU, or None while sleeping/unplaced
        self.cpu: Optional[int] = None
        #: current effective progress rate (set by the scheduler)
        self.rate: float = 0.0
        #: raw CPU-time share before memory throttling (scheduler-set)
        self.cpu_share: float = 0.0
        #: share-weighted memory demand this task last counted into the
        #: scheduler's running total (valid while it streams)
        self._mem_contrib: float = 0.0
        #: locality factor after a migration (cold caches / remote
        #: memory); resets when the task picks up new work
        self.speed_penalty: float = 1.0
        self._last_update: float = 0.0
        self._completion_event = None
        self._run_started: Optional[float] = None
        #: accumulated CPU time actually consumed (for tracing/accounting)
        self.total_cpu_time: float = 0.0
        self.alive = True
        #: persistent tasks (team threads) return to spinning on
        #: completion instead of leaving the CPU
        self.persistent = bool(persistent)

    # ------------------------------------------------------------------
    def is_noise(self) -> bool:
        """True if the tracer should record this task's on-CPU intervals."""
        return self.kind is not TaskKind.WORKLOAD

    def advance(self, now: float) -> None:
        """Integrate progress up to ``now`` at the current rate."""
        dt = now - self._last_update
        if dt < 0:
            return
        if dt and self.rate > 0.0:
            consumed = self.rate * dt
            self.total_cpu_time += consumed
            if self.pool is not None:
                self.pool.consume(consumed)
            elif self.work_remaining is not None:
                self.work_remaining -= consumed
                if self.work_remaining < 0.0:
                    self.work_remaining = 0.0
        self._last_update = now

    def time_to_completion(self) -> Optional[float]:
        """Seconds until this task completes at the current rate.

        ``None`` when it will never self-complete (spinning, pool member,
        zero rate).
        """
        if self.pool is not None or self.work_remaining is None:
            return None
        if self.rate <= 0.0:
            return None
        return self.work_remaining / self.rate

    def assign_work(self, work: float, mem_demand: float = 0.0) -> None:
        """Give a spinning thread a new piece of work (one region)."""
        if work < 0:
            raise ValueError(f"negative work: {work!r}")
        self.work_remaining = work
        self.mem_demand = float(mem_demand)
        self.spin = False
        self.pool = None
        # New work touches fresh data: the migration-cold state no
        # longer matters.
        self.speed_penalty = 1.0

    def join_pool(self, pool: "WorkPool", mem_demand: float = 0.0) -> None:
        """Attach this thread to a shared work pool for one region."""
        self.work_remaining = None
        self.mem_demand = float(mem_demand)
        self.spin = False
        self.pool = pool
        self.speed_penalty = 1.0
        pool.members.append(self)

    def to_spin(self) -> None:
        """Return to barrier-spin state (busy on its CPU, no work)."""
        self.work_remaining = None
        self.mem_demand = 0.0
        self.pool = None
        self.spin = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Task {self.name!r} tid={self.tid} {self.policy.value}"
            f" cpu={self.cpu} rate={self.rate:.3f}>"
        )


class WorkPool:
    """A shared pool of parallel work drained by member tasks.

    The pool completes when ``work_remaining`` reaches zero; the
    scheduler then notifies via ``on_drained``.  ``tail`` models the
    straggler effect of finite chunk granularity: after the pool drains,
    region completion still waits for the last chunk in flight, which is
    accounted for by the runtime when it sizes the pool.
    """

    __slots__ = ("name", "work_remaining", "members", "on_drained", "_completion_event")

    def __init__(self, name: str, work: float, on_drained: Optional[Callable[["WorkPool"], None]] = None):
        if work < 0:
            raise ValueError(f"negative pool work: {work!r}")
        self.name = name
        self.work_remaining = float(work)
        self.members: list[Task] = []
        self.on_drained = on_drained
        self._completion_event = None

    def consume(self, amount: float) -> None:
        """Drain ``amount`` seconds of work from the pool."""
        self.work_remaining -= amount
        if self.work_remaining < 0.0:
            self.work_remaining = 0.0

    def total_rate(self) -> float:
        """Combined progress rate of all members."""
        # Left to right: `sum` compensates float rounding on Python >= 3.12.
        rate = 0.0
        for t in self.members:
            rate += t.rate
        return rate

    def time_to_drain(self) -> Optional[float]:
        """Seconds until the pool empties at current rates, or ``None``."""
        rate = self.total_rate()
        if rate <= 0.0:
            return None
        return self.work_remaining / rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkPool {self.name!r} remaining={self.work_remaining:.6f} members={len(self.members)}>"
