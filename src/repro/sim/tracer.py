"""OSnoise-style tracer.

Records every interval of non-workload CPU occupancy, labelled with the
source task, exactly like the kernel's ``osnoise`` tracer (paper Fig. 3
and §4.1).  Two feeds:

* **macro events** arrive one at a time from the scheduler's
  ``on_noise_interval`` hook (kworkers, daemons, device IRQs, injected
  noise — the tracer cannot tell injected noise apart, which is what
  lets the pipeline validate its own replay);
* **micro events** (timer ticks and their softirqs) are synthesized in
  bulk by the noise model at run end, consistent with the steal
  fraction that was actually applied during simulation.

Tracing overhead: each recorded event costs :data:`PER_EVENT_OVERHEAD`
seconds of CPU.  Because micro events dominate event counts, the
overhead is applied as an additional per-CPU steal fraction — this is
what Table 1 measures (and finds to be <1%).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.events import EventType
from repro.core.trace import Trace
from repro.sim.noise import MicroNoiseSpec, NoiseModel
from repro.sim.task import Task, TaskKind

__all__ = ["OSNoiseTracer"]

# The kind → EventType code map, tested by identity: hashing an enum
# member is a Python-level call, once per recorded interval.
_THREAD, _THREAD_CODE = TaskKind.THREAD_NOISE, int(EventType.THREAD)
_IRQ, _IRQ_CODE = TaskKind.IRQ_NOISE, int(EventType.IRQ)
_SOFTIRQ, _SOFTIRQ_CODE = TaskKind.SOFTIRQ_NOISE, int(EventType.SOFTIRQ)

_SOFTIRQ_SOURCES = ("RCU:9", "SCHED:7", "TIMER:1", "NET_RX:3")
_SOFTIRQ_PROBS = (0.35, 0.35, 0.2, 0.1)
_TIMER_SOURCE = "local_timer:236"

#: CPU seconds consumed per recorded event — ring-buffer write plus the
#: osnoise context-switch accounting hooks; it lands in the paper's
#: sub-1% Table-1 range for compute-bound work
PER_EVENT_OVERHEAD = 12e-6


class OSNoiseTracer:
    """Per-run noise recorder with an overhead model.

    Parameters
    ----------
    enabled:
        When false the tracer steals no overhead and assembles no
        trace, and :class:`~repro.sim.machine.Machine` leaves its hook
        unwired (Table 1's "Tracing Off" arm).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # Macro records, one column each: cpu, EventType code, source
        # name, start, duration.
        self._cpus: list[int] = []
        self._etypes: list[int] = []
        self._sources: list[str] = []
        self._starts: list[float] = []
        self._durations: list[float] = []

    # ------------------------------------------------------------------
    def on_noise_interval(self, task: Task, cpu: int, start: float, cpu_time: float) -> None:
        """Scheduler hook: a noise task left CPU ``cpu``.

        :class:`~repro.sim.machine.Machine` wires it only while a trace
        is wanted, so it records without checking :attr:`enabled`.
        """
        kind = task.kind
        if kind is _THREAD:
            etype = _THREAD_CODE
        elif kind is _IRQ:
            etype = _IRQ_CODE
        elif kind is _SOFTIRQ:
            etype = _SOFTIRQ_CODE
        else:
            return
        self._cpus.append(cpu)
        self._etypes.append(etype)
        self._sources.append(task.name)
        self._starts.append(start)
        self._durations.append(cpu_time)

    def overhead_steal(self, tick_hz: int, micro: MicroNoiseSpec) -> float:
        """Extra per-CPU steal fraction caused by tracing.

        Estimated from the dominant record rate: one tick record plus a
        probabilistic softirq record per tick.
        """
        if not self.enabled:
            return 0.0
        events_per_sec = tick_hz * (1.0 + micro.softirq_prob)
        return events_per_sec * PER_EVENT_OVERHEAD

    @property
    def macro_record_count(self) -> int:
        """Number of macro events captured so far."""
        return len(self._cpus)

    # ------------------------------------------------------------------
    def finalize(
        self,
        duration: float,
        busy_cpus: tuple[int, ...],
        noise_model: Optional[NoiseModel],
        rng: np.random.Generator,
        meta: Optional[dict] = None,
    ) -> Optional[Trace]:
        """Assemble the run's :class:`~repro.core.trace.Trace`.

        Combines live macro records with synthesized micro records.
        Returns ``None`` when tracing was disabled.
        """
        if not self.enabled:
            return None
        # Sources are interned in order of first use: the macro records',
        # then the timer, then the softirq vectors.
        intern: dict[str, int] = {}
        sids = [intern.setdefault(name, len(intern)) for name in self._sources]
        cpus = np.array(self._cpus, dtype=np.int32)
        etypes = np.array(self._etypes, dtype=np.int8)
        sids = np.array(sids, dtype=np.int32)
        starts = np.array(self._starts, dtype=np.float64)
        durs = np.array(self._durations, dtype=np.float64)

        if noise_model is not None:
            m_cpus, m_kinds, m_starts, m_durs = noise_model.synthesize_micro_records(
                duration, busy_cpus
            )
            if len(m_cpus):
                timer_id = intern.setdefault(_TIMER_SOURCE, len(intern))
                softirq_ids = np.array(
                    [intern.setdefault(s, len(intern)) for s in _SOFTIRQ_SOURCES], dtype=np.int32
                )
                pick = rng.choice(len(_SOFTIRQ_SOURCES), size=len(m_cpus), p=_SOFTIRQ_PROBS)
                m_sids = np.where(m_kinds == _IRQ_CODE, timer_id, softirq_ids[pick])
                # the micro kinds are EventType codes already
                cpus = np.concatenate([cpus, m_cpus])
                etypes = np.concatenate([etypes, m_kinds])
                sids = np.concatenate([sids, m_sids.astype(np.int32)])
                starts = np.concatenate([starts, m_starts])
                durs = np.concatenate([durs, m_durs])

        return Trace(cpus, etypes, sids, starts, durs, list(intern), exec_time=duration, meta=meta)
