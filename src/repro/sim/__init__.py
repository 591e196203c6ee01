"""Simulation substrate: a discrete-event multicore machine model.

This package provides everything the paper's evaluation ran on top of:
logical CPUs with SMT, a Linux-like two-class scheduler (``SCHED_FIFO``
preempting ``SCHED_OTHER``), a shared memory-bandwidth model, stochastic
OS background noise, and an OSnoise-style tracer.

The public entry point is :class:`repro.sim.machine.Machine`, normally
constructed from a :class:`repro.sim.platform.PlatformSpec` preset.
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.cpu import Topology
from repro.sim.task import Task, WorkPool, SchedPolicy
from repro.sim.scheduler import Scheduler
from repro.sim.memory import MemorySystem
from repro.sim.platform import PlatformSpec, get_platform, available_platforms
from repro.sim.noise import NoiseModel, NoiseSourceSpec
from repro.sim.tracer import OSNoiseTracer
from repro.sim.machine import Machine

__all__ = [
    "Engine",
    "EventHandle",
    "Topology",
    "Task",
    "WorkPool",
    "SchedPolicy",
    "Scheduler",
    "MemorySystem",
    "PlatformSpec",
    "get_platform",
    "available_platforms",
    "NoiseModel",
    "NoiseSourceSpec",
    "OSNoiseTracer",
    "Machine",
]
