"""Machine facade: one simulated execution environment.

A :class:`Machine` wires together the event engine, topology, memory
system, scheduler, background-noise model and tracer for a *single
run*.  Machines are cheap and single-use: the experiment harness builds
a fresh one per repetition from the same
:class:`~repro.sim.platform.PlatformSpec` with a per-run RNG stream,
which is what makes every run independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.core.trace import Trace
from repro.sim.engine import Engine
from repro.sim.memory import MemorySystem
from repro.sim.noise import NoiseModel
from repro.sim.platform import PlatformSpec
from repro.sim.scheduler import Scheduler
from repro.sim.tracer import OSNoiseTracer

__all__ = ["Machine", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one simulated workload execution."""

    exec_time: float
    #: the tracer's output; ``None`` when tracing is off or the caller
    #: passed ``keep_trace=False`` (no consumer reads it)
    trace: Optional[Trace]
    anomaly: Optional[str] = None
    migrations: int = 0
    preemptions: int = 0
    meta: dict = field(default_factory=dict)


class Machine:
    """A single-run simulated multicore machine.

    Parameters
    ----------
    platform:
        Static machine description (topology, speeds, noise
        environment).  To run under other noise (runlevel 3, or a
        silent environment for noise-free unit tests), pass
        ``platform.with_noise(env)``; ``enable_noise=False`` runs with
        no noise model at all.
    rng:
        Per-run random generator; all stochastic behaviour derives from
        it, so equal seeds give bitwise-identical runs.
    tracing:
        Enable the OSnoise-style tracer (costs <1% like Table 1).
    rt_throttle:
        Linux RT-throttling fail-safe; the injector disables it.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        rng: np.random.Generator,
        *,
        tracing: bool = True,
        rt_throttle: bool = True,
        enable_noise: bool = True,
    ):
        self.platform = platform
        self.topology = platform.topology
        self.rng = rng
        self.engine = Engine()
        self.memory = MemorySystem(platform.bandwidth_gbs)
        self.tracer = OSNoiseTracer(enabled=tracing)
        self.scheduler = Scheduler(
            self.engine,
            self.topology,
            memory=self.memory,
            rt_throttle=rt_throttle,
            on_noise_interval=self.tracer.on_noise_interval if tracing else None,
        )
        self.noise_model: Optional[NoiseModel] = None
        if enable_noise:
            self.noise_model = NoiseModel(self, platform.noise, rng)
        #: logical CPUs that hosted workload threads (runtime reports these)
        self.workload_cpus: set[int] = set()
        self._done = False
        self._exec_time: Optional[float] = None

    # ------------------------------------------------------------------
    def extra_steal(self) -> float:
        """Additional steal fraction on every CPU (tracing overhead)."""
        micro = self.noise_model.env.micro if self.noise_model else None
        if micro is None:
            return 0.0
        return self.tracer.overhead_steal(self.platform.tick_hz, micro)

    def note_workload_cpu(self, cpu: int) -> None:
        """Runtimes report where their threads landed (for dyntick sim)."""
        self.workload_cpus.add(cpu)

    def workload_done(self) -> None:
        """Signal that the workload finished; stops the run loop."""
        if self._done:
            return
        self._done = True
        self._exec_time = self.engine.now
        self.engine.stop()

    # ------------------------------------------------------------------
    def run(
        self,
        start: Callable[["Machine"], None],
        expected_duration: float,
        max_events: Optional[int] = None,
        meta: Optional[dict] = None,
        keep_trace: bool = True,
    ) -> RunResult:
        """Execute one workload to completion.

        Parameters
        ----------
        start:
            Callback that launches the workload (and optionally an
            injector) on this machine at t=0; the workload must call
            :meth:`workload_done` when finished.
        expected_duration:
            A-priori runtime estimate used to place anomaly windows.
        keep_trace:
            Assemble the tracer's :class:`~repro.core.trace.Trace`.
            ``False`` records no macro interval and skips the assembly,
            but the tracer still steals its overhead, so the exec time,
            anomaly and counters are unchanged and ``trace`` is ``None``.
        """
        if self._exec_time is not None:
            raise RuntimeError("Machine instances are single-use")
        if not keep_trace:
            # The hook only feeds the trace; the scheduler's resets of a
            # noise task's run start and CPU time serve it alone.
            self.scheduler.on_noise_interval = None
        if self.noise_model is not None:
            self.noise_model.start(expected_duration)
        start(self)
        self.engine.run(max_events=max_events)
        if not self._done:
            raise RuntimeError(
                "engine drained without workload completion — deadlocked run"
            )
        exec_time = self._exec_time
        assert exec_time is not None
        if self.noise_model is not None:
            self.noise_model.stop()
        trace = None
        if keep_trace:
            trace = self.tracer.finalize(
                exec_time,
                tuple(sorted(self.workload_cpus)),
                self.noise_model,
                self.rng,
                meta=meta,
            )
        if _telemetry.enabled():
            # Engine counters flush once per run, never from inside the
            # event loop — the hot path is untouched, and the golden-
            # equivalence contract with it.
            group = _telemetry.get_group("engine")
            group.inc("runs")
            group.inc("events_executed", self.engine.events_executed)
            group.inc("compactions", self.engine.compactions)
        return RunResult(
            exec_time=exec_time,
            trace=trace,
            anomaly=self.noise_model.anomaly.name if self.noise_model and self.noise_model.anomaly else None,
            migrations=self.scheduler.migrations,
            preemptions=self.scheduler.preemptions,
            meta=dict(meta) if meta else {},
        )
