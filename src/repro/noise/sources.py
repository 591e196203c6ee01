"""Registered :class:`NoiseSource` implementations.

One class per kind; each holds its own parameters and arms its own
events when the run starts:

* ``trace-replay`` — the paper's per-CPU worst-case replay
  (:class:`~repro.core.config.NoiseConfig` through
  :class:`~repro.core.injector.NoiseInjector`, Listing 1);
* ``io`` — completion-interrupt storms + writeback flusher bursts
  (:class:`IoBurst`), the paper's named I/O future-work direction;
* ``memory`` — DRAM-bandwidth hogs (:class:`MemoryNoiseEvent`), its
  named memory future-work direction;
* ``hpas.cpu_occupy`` / ``hpas.membw`` / ``hpas.cache_thrash`` — the
  HPAS-style synthetic generators (Ates et al., ICPP'19) the paper
  contrasts trace replay against, stored by their generator
  parameters so specs stay small and human-readable.  The CPU hog
  replays through the paper's injector; the other two submit memory
  hogs like ``memory``;
* ``background`` lives in :mod:`repro.noise.background` (it wraps the
  synthetic OS-activity model, which needs environment serialization).

All of them serialize through the common
``{"kind", "version", "params"}`` envelope, so a single JSON document
can describe any composition of heterogeneous noise.  Each declares
its ``--noise`` parameters once, in its ``fields`` table; the HPAS
generators, stored by exactly those parameters, derive their payload
and its inverse from the table too (:class:`_FlatSource`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, Optional

import numpy as np

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.noise.base import REQUIRED, AttachedSource, NoiseSource, cpu_list, register_source
from repro.sim.task import SchedPolicy, Task, TaskKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import Machine

__all__ = [
    "IoBurst",
    "MemoryNoiseEvent",
    "TraceReplaySource",
    "IoNoiseSource",
    "MemoryNoiseSource",
    "HpasCpuOccupySource",
    "HpasMemoryBandwidthSource",
    "HpasCacheThrashSource",
]

#: coalescing quantum for I/O completion interrupts
_IRQ_SLICE = 1e-3


class _OnStart(AttachedSource):
    """Calls ``arm(*args)`` at the start barrier; pending events are
    simply abandoned when the workload finishes."""

    def __init__(self, arm: Callable[..., None], *args):
        self.arm = arm
        self.args = args

    def start(self, expected_duration: float) -> None:
        self.arm(*self.args)


def _replay(machine: "Machine", config: NoiseConfig) -> AttachedSource:
    """Replay ``config`` through the paper's injector (Listing 1)."""
    from repro.core.injector import NoiseInjector

    return _OnStart(NoiseInjector(config).launch, machine)


def _whole(name: str, value) -> int:
    """``value`` as an ``int`` if it is a whole number (``2`` and
    ``2.0`` are); anything else, NaN and infinity included, raises a
    ``ValueError`` naming the parameter instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        pass
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():  # also False for NaN and infinity
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


class _FlatSource(NoiseSource):
    """A source stored by its constructor arguments, one per ``fields``
    row, as the instance attributes of the same names: its payload, the
    payload's inverse and its ``--noise`` flags all read the table."""

    def params(self) -> dict:
        return {
            name: list(getattr(self, name)) if kind is cpu_list else getattr(self, name)
            for name, kind, _, _ in self.fields
        }

    @classmethod
    def from_params(cls, params: dict) -> "NoiseSource":
        return cls(**{name: params[name] for name, *_ in cls.fields if name in params})

    @classmethod
    def from_cli(cls, **raw: str) -> "NoiseSource":
        return cls(**cls._from_fields(raw))


# ----------------------------------------------------------------------
# trace replay (the paper's injector)
# ----------------------------------------------------------------------
@register_source
class TraceReplaySource(NoiseSource):
    """Replays a per-CPU worst-case noise configuration (paper §4.3)."""

    kind: ClassVar[str] = "trace-replay"
    fields = (("path", str, REQUIRED, "noise config JSON written by `repro-noise configure`"),)

    def __init__(self, config: NoiseConfig):
        if not isinstance(config, NoiseConfig):
            raise TypeError(f"TraceReplaySource needs a NoiseConfig, got {type(config).__name__}")
        self.config = config

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _replay(machine, self.config)

    def params(self) -> dict:
        return {"config": json.loads(self.config.to_json())}

    @classmethod
    def from_params(cls, params: dict) -> "TraceReplaySource":
        return cls(NoiseConfig.from_json(json.dumps(params["config"])))

    @classmethod
    def from_cli(cls, **raw: str) -> "TraceReplaySource":
        return cls(NoiseConfig.load(cls._from_fields(raw)["path"]))


# ----------------------------------------------------------------------
# I/O interference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IoBurst:
    """One I/O episode (e.g. a checkpoint write or log flush).

    Parameters
    ----------
    start, duration:
        The episode's window in seconds.
    irq_rate:
        Completion interrupts per second during the window.
    irq_duration:
        CPU time per completion interrupt (µs-scale).
    irq_cpus:
        CPUs receiving the completions (the submitting cores; block
        IRQs are steered, so they stay put like the paper's irq noise).
    flush_cpu_time:
        Total kworker/flusher CPU-seconds spread over the window.
    flush_segments:
        Number of flusher wakeups the CPU time is split into.
    """

    start: float
    duration: float
    irq_rate: float = 2000.0
    irq_duration: float = 8e-6
    irq_cpus: tuple[int, ...] = (0,)
    flush_cpu_time: float = 0.05
    flush_segments: int = 20

    def __post_init__(self) -> None:
        # NaN fails these comparisons too
        if not (0 <= self.start < math.inf and 0 < self.duration < math.inf):
            raise ValueError("burst needs a finite start >= 0 and duration > 0")
        if not (0 <= self.irq_rate < math.inf and 0 <= self.irq_duration < math.inf):
            raise ValueError("irq parameters must be non-negative and finite")
        if not (0 <= self.flush_cpu_time < math.inf and 0 < self.flush_segments < math.inf):
            raise ValueError("flush needs a finite cpu time >= 0 and segments > 0")
        if not self.irq_cpus and self.irq_rate > 0:
            raise ValueError("irq_rate > 0 needs target cpus")


def _submit_irq_slice(machine: "Machine", cpu: int, busy: float) -> None:
    task = Task(
        "inject:nvme-completion",
        policy=SchedPolicy.FIFO,
        rt_priority=90,
        kind=TaskKind.IRQ_NOISE,
        work=busy,
    )
    machine.scheduler.submit(task, hint=cpu)


def _submit_flush(machine: "Machine", duration: float) -> None:
    task = Task(
        "inject:kworker-flush",
        policy=SchedPolicy.OTHER,
        kind=TaskKind.THREAD_NOISE,
        work=duration,
    )
    machine.scheduler.submit(task)


@register_source
class IoNoiseSource(NoiseSource):
    """I/O interference: completion IRQ storms + flusher kworkers.

    Completion interrupts (irq-class: they preempt everything) are
    coalesced into millisecond-scale slices per target CPU whose total
    busy time matches the configured rate — per-completion events at
    2 kHz would swamp the event loop, the same trade the simulator
    makes for timer ticks.  Flusher kworkers (thread-class, unbound)
    timeshare, so idle housekeeping cores absorb them.  The flusher
    segmentation is the only draw from the run's RNG.  ``meta`` is
    free-form provenance carried in the serialized payload.
    """

    kind: ClassVar[str] = "io"
    fields = (
        ("start", float, REQUIRED, "burst start time in seconds"),
        ("duration", float, REQUIRED, "burst window in seconds"),
        ("irq_rate", float, 2000.0, "completion interrupts per second"),
        ("irq_duration", float, 8e-6, "CPU time per interrupt in seconds"),
        ("irq_cpus", cpu_list, (0,), "+-separated CPUs receiving completions"),
        ("flush_cpu_time", float, 0.05, "flusher CPU-seconds over the window"),
        ("flush_segments", int, 20, "flusher wakeups"),
    )

    def __init__(self, bursts: Iterable[IoBurst], meta: Optional[dict] = None):
        self.bursts = tuple(sorted(bursts, key=lambda b: b.start))
        if not self.bursts:
            raise ValueError("refusing to inject an empty I/O-noise configuration")
        self.meta = dict(meta) if meta else {}

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _OnStart(self._arm, machine, rng)

    def _arm(self, machine: "Machine", rng: np.random.Generator) -> None:
        now = machine.engine.now
        for burst in self.bursts:
            # irq-class completion slices, one stream per submitting CPU
            if burst.irq_rate > 0 and burst.irq_duration > 0:
                busy_per_slice = burst.irq_rate * _IRQ_SLICE * burst.irq_duration
                n_slices = max(1, int(round(burst.duration / _IRQ_SLICE)))
                for cpu in burst.irq_cpus:
                    for i in range(n_slices):
                        t = max(now, burst.start + i * _IRQ_SLICE)
                        machine.engine.schedule(t, _submit_irq_slice, machine, cpu, busy_per_slice)
            # thread-class flusher segments, unbound (kworkers roam)
            if burst.flush_cpu_time > 0:
                parts = rng.exponential(1.0, size=burst.flush_segments)
                parts = parts / parts.sum() * burst.flush_cpu_time
                offsets = np.sort(rng.uniform(0.0, burst.duration, size=burst.flush_segments))
                for dur, off in zip(parts, offsets):
                    machine.engine.schedule(
                        max(now, burst.start + float(off)), _submit_flush, machine, float(dur)
                    )

    def params(self) -> dict:
        bursts = [{**asdict(b), "irq_cpus": list(b.irq_cpus)} for b in self.bursts]
        return {"config": {"meta": dict(self.meta), "bursts": bursts}}

    @classmethod
    def from_params(cls, params: dict) -> "IoNoiseSource":
        config = params["config"]
        return cls(
            [IoBurst(**{**d, "irq_cpus": tuple(d["irq_cpus"])}) for d in config["bursts"]],
            config.get("meta"),
        )

    @classmethod
    def from_cli(cls, **raw: str) -> "IoNoiseSource":
        return cls([IoBurst(**cls._from_fields(raw))])


# ----------------------------------------------------------------------
# memory bandwidth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryNoiseEvent:
    """One memory-hog burst."""

    start: float
    duration: float          # CPU-seconds the hog runs
    bandwidth_gbs: float     # DRAM bandwidth it pulls at full speed
    source: str = "membw-hog"

    def __post_init__(self) -> None:
        # NaN fails these comparisons too
        if not (0 <= self.start < math.inf and 0 < self.duration < math.inf):
            raise ValueError("event needs a finite start >= 0 and duration > 0")
        if not 0 < self.bandwidth_gbs < math.inf:
            raise ValueError("bandwidth_gbs must be positive and finite")

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "start_time": self.start,
            "duration": self.duration,
            "bandwidth_gbs": self.bandwidth_gbs,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MemoryNoiseEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            start=d["start_time"],
            duration=d["duration"],
            bandwidth_gbs=d["bandwidth_gbs"],
            source=d.get("source", "membw-hog"),
        )


def _arm_memory_hogs(machine: "Machine", events: tuple[MemoryNoiseEvent, ...]) -> None:
    for event in events:
        machine.engine.schedule(
            max(event.start, machine.engine.now), _submit_memory_hog, machine, event
        )


def _submit_memory_hog(machine: "Machine", event: MemoryNoiseEvent) -> None:
    task = Task(
        f"inject:{event.source}",
        policy=SchedPolicy.OTHER,
        kind=TaskKind.THREAD_NOISE,
        work=event.duration,
        mem_demand=event.bandwidth_gbs,
    )
    machine.scheduler.submit(task)


@register_source
class MemoryNoiseSource(NoiseSource):
    """Memory-bandwidth hogs pressuring the saturating DRAM model.

    Hogs run under ``SCHED_OTHER`` without affinity (like the paper's
    injector processes) but carry a memory demand: on an otherwise idle
    CPU they are invisible to compute-bound work yet throttle
    bandwidth-bound threads machine-wide — the asymmetry the paper's
    discussion predicts for its memory-bound benchmarks.  ``meta`` is
    free-form provenance carried in the serialized payload.
    """

    kind: ClassVar[str] = "memory"
    fields = (
        ("start", float, REQUIRED, "burst start time in seconds"),
        ("duration", float, REQUIRED, "hog CPU-seconds"),
        ("bandwidth_gbs", float, REQUIRED, "DRAM bandwidth the hog pulls"),
        ("source", str, "membw-hog", "label in traces"),
    )

    def __init__(self, events: Iterable[MemoryNoiseEvent], meta: Optional[dict] = None):
        self.events = tuple(sorted(events, key=lambda e: e.start))
        if not self.events:
            raise ValueError("refusing to inject an empty memory-noise configuration")
        self.meta = dict(meta) if meta else {}

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _OnStart(_arm_memory_hogs, machine, self.events)

    def params(self) -> dict:
        events = [e.to_dict() for e in self.events]
        return {"config": {"meta": dict(self.meta), "events": events}}

    @classmethod
    def from_params(cls, params: dict) -> "MemoryNoiseSource":
        config = params["config"]
        return cls([MemoryNoiseEvent.from_dict(d) for d in config["events"]], config.get("meta"))

    @classmethod
    def from_cli(cls, **raw: str) -> "MemoryNoiseSource":
        return cls([MemoryNoiseEvent(**cls._from_fields(raw))])


# ----------------------------------------------------------------------
# HPAS-style synthetic generators (stored by generator parameters)
# ----------------------------------------------------------------------
@register_source
class HpasCpuOccupySource(_FlatSource):
    """HPAS ``cpuoccupy``: synthetic (optionally square-wave) CPU hogs.

    ``utilization`` < 1 produces a square-wave hog (busy for
    ``utilization * period`` out of every ``period``), which is how the
    HPAS tool implements partial occupation.  Events replay through the
    paper's injector as ``SCHED_OTHER`` thread noise — HPAS runs as an
    ordinary process.
    """

    kind: ClassVar[str] = "hpas.cpu_occupy"
    fields = (
        ("start", float, REQUIRED, "hog start time in seconds"),
        ("duration", float, REQUIRED, "hog duration in seconds"),
        ("cpus", cpu_list, REQUIRED, "+-separated target CPUs"),
        ("utilization", float, 1.0, "busy fraction per period, (0, 1]"),
        ("period", float, 0.01, "square-wave period in seconds"),
    )

    def __init__(
        self,
        start: float,
        duration: float,
        cpus: tuple[int, ...],
        utilization: float = 1.0,
        period: float = 10e-3,
    ):
        self.start = float(start)
        self.duration = float(duration)
        self.cpus = tuple(_whole("cpus", c) for c in cpus)
        self.utilization = float(utilization)
        self.period = float(period)
        # NaN fails these comparisons too
        if not 0.0 < self.utilization <= 1.0:
            raise ValueError(f"utilization must be in (0, 1]: {self.utilization!r}")
        if not (0 < self.duration < math.inf and 0 < self.period < math.inf):
            raise ValueError("duration and period must be positive and finite")
        if not math.isfinite(self.start):
            raise ValueError(f"start must be finite: {self.start!r}")
        if not self.cpus:
            raise ValueError("need at least one target cpu")
        if self.utilization >= 1.0:
            windows = [(self.start, self.duration)]
        else:
            busy = self.utilization * self.period
            n_periods = max(1, round(self.duration / self.period))
            starts = (self.start + i * self.period for i in range(n_periods))
            windows = [(t, min(busy, self.start + self.duration - t)) for t in starts]
        events = [
            ConfigEvent(
                start=t,
                duration=d,
                policy="SCHED_OTHER",
                rt_priority=0,
                weight=1.0,
                etype=EventType.THREAD,
                source="hpas-cpuoccupy",
            )
            for t, d in windows
        ]
        self.config = NoiseConfig({cpu: events for cpu in self.cpus})

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _replay(machine, self.config)


@register_source
class HpasMemoryBandwidthSource(_FlatSource):
    """HPAS ``membw``: ``streams`` hogs splitting a DRAM bandwidth draw."""

    kind: ClassVar[str] = "hpas.membw"
    fields = (
        ("start", float, REQUIRED, "hog start time in seconds"),
        ("duration", float, REQUIRED, "hog duration in seconds"),
        ("bandwidth_gbs", float, REQUIRED, "total DRAM bandwidth pulled"),
        ("streams", int, 1, "number of hog streams"),
    )

    def __init__(self, start: float, duration: float, bandwidth_gbs: float, streams: int = 1):
        self.start = float(start)
        self.duration = float(duration)
        self.bandwidth_gbs = float(bandwidth_gbs)
        self.streams = _whole("streams", streams)
        if self.streams <= 0:
            raise ValueError("streams must be positive")
        # each event rejects a NaN or infinite start, duration or bandwidth
        self.events = tuple(
            MemoryNoiseEvent(
                start=self.start,
                duration=self.duration,
                bandwidth_gbs=self.bandwidth_gbs / self.streams,
                source=f"hpas-membw-{i}",
            )
            for i in range(self.streams)
        )

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _OnStart(_arm_memory_hogs, machine, self.events)


@register_source
class HpasCacheThrashSource(_FlatSource):
    """HPAS ``cachecopy``: per-CPU copy loops evicting shared cache.

    In this substrate cache pollution manifests as extra memory traffic
    from the victims: one ``bandwidth_gbs`` hog per listed CPU.
    """

    kind: ClassVar[str] = "hpas.cache_thrash"
    fields = (
        ("start", float, REQUIRED, "thrash start time in seconds"),
        ("duration", float, REQUIRED, "thrash duration in seconds"),
        ("cpus", cpu_list, REQUIRED, "+-separated victim CPUs"),
        ("bandwidth_gbs", float, 8.0, "per-CPU bandwidth draw"),
    )

    def __init__(self, start: float, duration: float, cpus: tuple[int, ...], bandwidth_gbs: float = 8.0):
        self.start = float(start)
        self.duration = float(duration)
        self.cpus = tuple(_whole("cpus", c) for c in cpus)
        self.bandwidth_gbs = float(bandwidth_gbs)
        if not self.cpus:
            raise ValueError("need at least one target cpu")
        # each event rejects a NaN or infinite start, duration or bandwidth
        self.events = tuple(
            MemoryNoiseEvent(
                start=self.start,
                duration=self.duration,
                bandwidth_gbs=self.bandwidth_gbs,
                source=f"hpas-cachecopy-{cpu}",
            )
            for cpu in self.cpus
        )

    def attach(self, machine: "Machine", rng: np.random.Generator) -> AttachedSource:
        return _OnStart(_arm_memory_hogs, machine, self.events)
