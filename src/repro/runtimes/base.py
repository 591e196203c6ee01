"""Shared runtime machinery: regions, placements, and the thread team.

A workload is a stream of :class:`Region` descriptors (parallel loops,
kernels, serial sections).  A runtime interprets those regions on a
simulated machine with a persistent team of threads, and signals
:meth:`repro.sim.machine.Machine.workload_done` when the stream ends.

The execution style per region — static partitioning with an
end-of-region barrier versus shared-pool work stealing — is the single
biggest determinant of noise resilience in the paper, so it is the main
thing subclasses override.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.sim.machine import Machine
from repro.sim.task import Task, WorkPool

__all__ = ["Region", "Placement", "TeamRuntime"]


@dataclass(frozen=True)
class Region:
    """One phase of a workload.

    Parameters
    ----------
    total_work:
        CPU-seconds of work across all threads at nominal core speed
        (the workload model already divided by the platform's
        per-core throughput).
    mem_demand:
        DRAM bandwidth (GB/s) each participating thread would pull at
        full speed; 0 for compute-bound phases.
    schedule:
        OpenMP loop schedule hint (``static`` / ``dynamic`` /
        ``guided``); the SYCL runtime ignores it (always steals).
    chunk_work:
        CPU-seconds per chunk for chunked schedules; 0 means the
        runtime's default granularity.
    imbalance:
        Fractional spread of per-thread shares under pure static
        partitioning (0 = perfectly balanced loop).
    serial:
        Master-only section (``total_work`` executed by thread 0).
    reduction:
        Adds a small serial combine on the master after the parallel
        part (Babelstream *dot*, CG dot products).
    sycl_efficiency:
        Relative throughput of the SYCL implementation of this phase
        versus the OpenMP one (HeCBench kernels are not identical
        code); the SYCL runtime divides work by this.
    """

    name: str
    total_work: float
    mem_demand: float = 0.0
    schedule: str = "static"
    chunk_work: float = 0.0
    imbalance: float = 0.0
    serial: bool = False
    reduction: bool = False
    sycl_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.total_work < 0:
            raise ValueError(f"negative region work: {self.total_work!r}")
        if self.schedule not in ("static", "dynamic", "guided"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0.0 <= self.imbalance < 1.0:
            raise ValueError(f"imbalance must be in [0, 1): {self.imbalance!r}")
        if not 0.0 < self.sycl_efficiency <= 1.5:
            raise ValueError(f"implausible sycl_efficiency: {self.sycl_efficiency!r}")


@dataclass(frozen=True)
class Placement:
    """Where and how the workload's threads run (mitigation output).

    ``cpus`` is the affinity mask (the workload may use fewer threads
    than CPUs under housekeeping); with ``pinned`` each thread is fixed
    to ``cpus[i]``, otherwise threads roam within the mask.
    """

    cpus: tuple[int, ...]
    n_threads: int
    pinned: bool
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if self.n_threads > len(self.cpus):
            raise ValueError(
                f"{self.n_threads} threads cannot be placed on {len(self.cpus)} cpus"
            )
        if len(set(self.cpus)) != len(self.cpus):
            raise ValueError("duplicate cpus in placement")


def split_static(total: float, n: int, imbalance: float) -> list[float]:
    """Static partition of ``total`` work into ``n`` shares.

    Imbalance is a deterministic linear ramp: thread shares deviate up
    to ``±imbalance`` around the mean while summing to ``total``
    exactly (up to float error), mirroring a triangular iteration-cost
    profile split contiguously.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    base = total / n
    if n == 1 or imbalance == 0.0:
        return [base] * n
    shares = [base * (1.0 + imbalance * (2.0 * i / (n - 1) - 1.0)) for i in range(n)]
    return shares


class TeamRuntime(abc.ABC):
    """Base class running a region stream with a persistent team."""

    #: short model name ("omp" / "sycl")
    name: str = "base"

    #: run-to-run multiplicative spread of the runtime's own efficiency
    #: (thread-pool state, allocator behaviour, JIT warm-up); lognormal
    #: sigma sampled once per launch
    runtime_jitter_sd: float = 0.002

    def __init__(self) -> None:
        self.machine: Optional[Machine] = None
        self.team: list[Task] = []
        self._regions: Optional[Iterator[Region]] = None
        self._pending = 0
        self._current: Optional[Region] = None
        self._jitter = 1.0

    # ------------------------------------------------------------------
    # launch
    # ------------------------------------------------------------------
    def launch(self, machine: Machine, regions: Iterator[Region], placement: Placement) -> None:
        """Start executing at the machine's current time (t=0 usually)."""
        if self.machine is not None:
            raise RuntimeError("runtime instances are single-use")
        self.machine = machine
        self._regions = iter(regions)
        if self.runtime_jitter_sd > 0:
            self._jitter = float(machine.rng.lognormal(0.0, self.runtime_jitter_sd))
        self._spawn_team(placement)
        # Model runtime startup (thread-team creation / queue init).
        machine.engine.schedule_after(self.startup_cost(placement.n_threads), self._advance)

    def _spawn_team(self, placement: Placement) -> None:
        machine = self.machine
        assert machine is not None
        mask = frozenset(placement.cpus)
        for i in range(placement.n_threads):
            t = Task(
                f"{self.name}-worker-{i}",
                affinity=frozenset({placement.cpus[i]}) if placement.pinned else mask,
                pinned=placement.pinned,
                persistent=True,
            )
            self.team.append(t)
            cpu = machine.scheduler.submit(
                t,
                cpu=placement.cpus[i] if placement.pinned else None,
                hint=placement.cpus[i % len(placement.cpus)],
            )
            machine.note_workload_cpu(cpu)

    # ------------------------------------------------------------------
    # region state machine
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        assert self.machine is not None and self._regions is not None
        region = next(self._regions, None)
        if region is None:
            self.machine.workload_done()
            return
        self._current = region
        if region.serial:
            self._exec_serial(region)
        else:
            self._exec_parallel(region)

    def _exec_serial(self, region: Region) -> None:
        master = self.team[0]
        work = self.scale_work(region.total_work, region)
        if work <= 0.0:
            self._advance()
            return
        master.on_complete = self._serial_done
        self.machine.scheduler.assign_work(master, work, mem_demand=region.mem_demand)
        self.machine.scheduler.refresh(master)

    def _serial_done(self, task: Task) -> None:
        task.on_complete = None
        self._advance()

    def _after_region(self) -> None:
        region = self._current
        assert region is not None
        if region.reduction:
            # Serial combine of per-thread partials on the master.
            master = self.team[0]
            master.on_complete = self._serial_done
            self.machine.scheduler.assign_work(master, self.reduction_cost(len(self.team)))
            self.machine.scheduler.refresh(master)
        else:
            self._advance()

    # ------------------------------------------------------------------
    # shared execution helpers
    # ------------------------------------------------------------------
    def _exec_static_partition(self, region: Region, shares: list[float]) -> None:
        """Give each thread a fixed share; barrier when all finish."""
        machine = self.machine
        now = machine.engine.now
        mem_demand = float(region.mem_demand)
        done = self._barrier_arrival
        pending = 0
        for t, w in zip(self.team, shares):
            if w <= 0.0:
                continue
            pending += 1
            t.on_complete = done
            # inlined Scheduler.assign_work: settle the spin gap first
            # (inlined Task.advance(now)), then attach the work (inlined
            # Task.assign_work; w > 0 here)
            dt = now - t._last_update
            if dt >= 0:
                if dt and t.rate > 0.0:
                    consumed = t.rate * dt
                    t.total_cpu_time += consumed
                    if t.pool is not None:
                        t.pool.consume(consumed)
                    elif t.work_remaining is not None:
                        t.work_remaining -= consumed
                        if t.work_remaining < 0.0:
                            t.work_remaining = 0.0
                t._last_update = now
            t.work_remaining = w
            t.mem_demand = mem_demand
            t.spin = False
            t.pool = None
            t.speed_penalty = 1.0
        self._pending = pending
        if pending == 0:
            machine.engine.schedule_after(self.barrier_cost(len(self.team)), self._after_region)
            return
        machine.scheduler.refresh_many(self.team)

    def _barrier_arrival(self, task: Task) -> None:
        """A thread of a static partition or a pool's straggler reached
        the region's barrier; the last arrival schedules the join."""
        task.on_complete = None
        self._pending -= 1
        if self._pending == 0:
            self.machine.engine.schedule_after(
                self.barrier_cost(len(self.team)), self._after_region
            )

    def _exec_pool(self, region: Region, work: float, n_chunks: int, tail: float) -> None:
        """Drain ``work`` through a shared pool (stealing semantics)."""
        scheduler = self.machine.scheduler
        eff = work + n_chunks * self.chunk_overhead()
        pool = WorkPool(region.name, eff, on_drained=self._pool_drained)
        for t in self.team:
            scheduler.join_pool(t, pool, mem_demand=region.mem_demand)
        self._pool_tail = tail
        self._pool_mem = region.mem_demand
        scheduler.refresh_many(self.team)
        scheduler.register_pool(pool)

    def _pool_drained(self, pool: WorkPool) -> None:
        scheduler = self.machine.scheduler
        # A preempted worker's in-flight chunk cannot be stolen: the
        # region's join must wait for that worker to run again and
        # finish it.  This bounds how much noise work-stealing hides —
        # without it SYCL would look implausibly immune to FIFO noise.
        blocked = [t for t in pool.members if t.rate == 0.0]
        scheduler.detach_pool(pool)
        if blocked and self._pool_tail > 0.0:
            self._pending = 0
            for t in blocked:
                self._pending += 1
                t.on_complete = self._barrier_arrival
                scheduler.assign_work(t, self._pool_tail * 0.5, mem_demand=self._pool_mem)
            scheduler.refresh_many(blocked)
            return
        # Otherwise only the ordinary last-chunk tail remains: while one
        # worker finishes the final chunk the other n-1 idle (no tail at
        # all for a single worker).
        n = max(1, len(self.team))
        delay = self._pool_tail * (n - 1) / n + self.barrier_cost(n)
        self.machine.engine.schedule_after(delay, self._after_region)

    # ------------------------------------------------------------------
    # model knobs (subclass overrides)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _exec_parallel(self, region: Region) -> None:
        """Execute a non-serial region."""

    def scale_work(self, work: float, region: Region) -> float:
        """Model-specific work scaling (SYCL divides by efficiency)."""
        return work * self._jitter

    def startup_cost(self, n_threads: int) -> float:
        """One-time runtime initialisation latency."""
        return 50e-6

    def barrier_cost(self, n_threads: int) -> float:
        """End-of-region synchronisation latency."""
        return 2e-6 + 0.2e-6 * n_threads

    def reduction_cost(self, n_threads: int) -> float:
        """Serial combine cost after a reduction region."""
        return 1e-6 + 0.5e-6 * n_threads

    def chunk_overhead(self) -> float:
        """Cost of acquiring one chunk from the shared pool."""
        return 0.3e-6

    @staticmethod
    def chunks_for(work: float, chunk_work: float) -> int:
        """Number of chunks of ``chunk_work`` needed to cover ``work``."""
        if chunk_work <= 0:
            return 1
        return max(1, math.ceil(work / chunk_work))
