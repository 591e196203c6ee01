"""Shared case matrix for the golden-equivalence suite.

The scheduler/engine fast path carries a hard bit-identity contract:
any optimization must reproduce execution times, traces, and scheduler
counters *exactly* (same floats, same event streams) for every seed,
topology, and noise stack.  This module defines the reference matrix —
``tools/gen_golden_fixtures.py`` records it into
``tests/fixtures/golden_equivalence.json`` and
``tests/test_golden_equivalence.py`` replays it against the fixtures.

Cases deliberately cross the axes that stress different scheduler
paths: SMT vs not, NUMA vs single-node, FIFO preemption vs fair
sharing, memory saturation vs compute-bound, static barriers vs
work-stealing pools, housekeeping (idle-CPU pull/migration) vs fully
packed machines, and every registered noise mechanism.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.harness.experiment import ExperimentSpec
from repro.noise.base import NoiseStack

__all__ = ["FIXTURE_PATH", "build_cases", "run_case", "digest_trace"]

FIXTURE_PATH = "tests/fixtures/golden_equivalence.json"


def _replay_config(n_cpus: int = 4, n_events: int = 25) -> NoiseConfig:
    """A deterministic mixed-policy replay config (no RNG involved)."""
    events: dict[int, list[ConfigEvent]] = {}
    for cpu in range(n_cpus):
        evts = []
        for i in range(n_events):
            start = 0.002 + 0.004 * i + 0.0007 * cpu
            if i % 3 == 0:
                evts.append(
                    ConfigEvent(
                        start=start,
                        duration=25e-6 + 2e-6 * (i % 5),
                        policy="SCHED_FIFO",
                        rt_priority=90,
                        etype=EventType.IRQ,
                        weight=1.0,
                        source=f"golden-irq-{cpu}",
                    )
                )
            else:
                evts.append(
                    ConfigEvent(
                        start=start,
                        duration=120e-6 + 10e-6 * (i % 4),
                        policy="SCHED_OTHER",
                        rt_priority=0,
                        etype=EventType.THREAD,
                        weight=2.0,
                        source=f"golden-kworker/{cpu}",
                    )
                )
        events[cpu] = evts
    return NoiseConfig(events, meta={"origin": "golden-equivalence"})


def _noise(kind: Optional[str]):
    """Build the named noise stack (kept lazy: sources import extensions)."""
    if kind is None:
        return None
    if kind == "replay":
        from repro.noise.sources import TraceReplaySource

        return NoiseStack([TraceReplaySource(_replay_config())])
    if kind == "io":
        from repro.noise.sources import IoBurst, IoNoiseSource

        return NoiseStack(
            [
                IoNoiseSource(
                    [
                        IoBurst(start=0.004, duration=0.05, irq_cpus=(0, 1)),
                        IoBurst(start=0.08, duration=0.04, irq_cpus=(2,)),
                    ]
                )
            ]
        )
    if kind == "hpas":
        from repro.noise.sources import HpasCpuOccupySource

        return NoiseStack(
            [HpasCpuOccupySource(start=0.003, duration=0.1, cpus=(0, 2), utilization=0.8)]
        )
    if kind == "composite":
        from repro.noise.sources import IoBurst, IoNoiseSource, TraceReplaySource

        return NoiseStack(
            [
                TraceReplaySource(_replay_config(n_cpus=2, n_events=12)),
                IoNoiseSource([IoBurst(start=0.01, duration=0.05, irq_cpus=(0,))]),
            ]
        )
    raise ValueError(f"unknown golden noise kind {kind!r}")


def build_cases() -> list[dict]:
    """(name, spec kwargs, noise kind) for every golden case.

    Each entry gets a distinct seed; together the matrix covers >20
    seeds across all five platform topologies and every major noise
    mechanism.
    """
    cases = [
        # --- baseline, no injection: every topology, both models -----
        dict(name="intel-schedbench-static", platform="intel-9700kf", workload="schedbench",
             seed=101, workload_params={"schedule": "static", "repeats": 4}),
        dict(name="intel-schedbench-dynamic", platform="intel-9700kf", workload="schedbench",
             seed=102, workload_params={"schedule": "dynamic", "chunk": 64, "repeats": 4}),
        dict(name="intel-schedbench-guided-sycl", platform="intel-9700kf", workload="schedbench",
             seed=103, model="sycl", workload_params={"schedule": "guided", "repeats": 4}),
        dict(name="intel-nbody", platform="intel-9700kf", workload="nbody", seed=104,
             workload_params={"steps": 3}),
        dict(name="intel-babelstream-mem", platform="intel-9700kf", workload="babelstream",
             seed=105, workload_params={"iters": 12}),
        dict(name="intel-montecarlo", platform="intel-9700kf", workload="montecarlo", seed=106,
             workload_params={"batches": 4}),
        dict(name="amd-nbody-smt", platform="amd-9950x3d", workload="nbody", seed=107,
             workload_params={"steps": 2}),
        dict(name="amd-nbody-nosmt", platform="amd-9950x3d", workload="nbody", seed=108,
             use_smt=False, workload_params={"steps": 2}),
        dict(name="amd-schedbench-sycl", platform="amd-9950x3d", workload="schedbench",
             seed=109, model="sycl", workload_params={"repeats": 3}),
        dict(name="a64fx-minife", platform="a64fx", workload="minife", seed=110,
             workload_params={"cg_iters": 8}),
        dict(name="a64fx-reserved-minife", platform="a64fx-reserved", workload="minife",
             seed=111, workload_params={"cg_iters": 6}),
        dict(name="numa-heat", platform="hpc-2s64", workload="heat", seed=112,
             workload_params={"sweeps": 12}),
        # --- mitigation strategies (migration / housekeeping paths) --
        dict(name="intel-nbody-tp", platform="intel-9700kf", workload="nbody", seed=113,
             strategy="TP", workload_params={"steps": 3}),
        dict(name="intel-nbody-rmhk2", platform="intel-9700kf", workload="nbody", seed=114,
             strategy="RmHK2", workload_params={"steps": 3}),
        dict(name="amd-schedbench-tphk", platform="amd-9950x3d", workload="schedbench",
             seed=115, strategy="TPHK", workload_params={"repeats": 3}),
        dict(name="intel-nbody-threads3", platform="intel-9700kf", workload="nbody", seed=116,
             n_threads=3, workload_params={"steps": 3}),
        # --- environment variants -----------------------------------
        dict(name="intel-runlevel3", platform="intel-9700kf", workload="schedbench",
             seed=117, runlevel3=True, workload_params={"repeats": 4}),
        dict(name="intel-anomaly-forced", platform="intel-9700kf", workload="nbody",
             seed=118, anomaly_prob=1.0, workload_params={"steps": 3}),
        dict(name="intel-tracing-off", platform="intel-9700kf", workload="schedbench",
             seed=119, tracing=False, workload_params={"repeats": 4}),
        # --- injection: every registered mechanism -------------------
        dict(name="intel-replay", platform="intel-9700kf", workload="schedbench",
             seed=120, rt_throttle=False, noise="replay", workload_params={"repeats": 4}),
        dict(name="intel-replay-hk", platform="intel-9700kf", workload="schedbench",
             seed=121, strategy="RmHK2", rt_throttle=False, noise="replay",
             workload_params={"repeats": 4}),
        dict(name="intel-io-noise", platform="intel-9700kf", workload="nbody", seed=122,
             noise="io", workload_params={"steps": 3}),
        dict(name="intel-hpas-occupy", platform="intel-9700kf", workload="schedbench",
             seed=123, noise="hpas", workload_params={"repeats": 4}),
        dict(name="amd-composite-stack", platform="amd-9950x3d", workload="schedbench",
             seed=124, rt_throttle=False, noise="composite", workload_params={"repeats": 3}),
        dict(name="a64fx-replay-minife", platform="a64fx", workload="minife", seed=125,
             rt_throttle=False, noise="replay", workload_params={"cg_iters": 5}),
    ]
    return cases


def digest_trace(trace) -> str:
    """Stable content hash of a trace (arrays + interned sources)."""
    if trace is None:
        return "none"
    h = hashlib.sha256()
    for arr in (trace.cpus, trace.etypes, trace.source_ids, trace.starts, trace.durations):
        h.update(arr.tobytes())
    h.update("\x00".join(trace.sources).encode())
    h.update(float(trace.exec_time).hex().encode())
    return h.hexdigest()


def run_case(case: dict, reps: int = 2, policy=None, executor=None) -> dict:
    """Execute one golden case and return its observable signature.

    The signature pins everything an optimization could perturb:
    per-rep execution times (exact float hex), anomaly labels,
    migration/preemption counters, and a content hash of the full
    tracer output.

    ``policy`` / ``executor`` let the chaos suite replay the matrix
    through recovery paths — signatures must match the fixtures
    bitwise regardless.
    """
    from repro.harness.executor import SerialExecutor
    from repro.harness.experiment import run_experiment

    kwargs = {k: v for k, v in case.items() if k not in ("name", "noise")}
    spec = ExperimentSpec(reps=reps, **kwargs)
    noise = _noise(case.get("noise"))

    runs: list[dict] = []

    def on_run(index, run):
        runs.append(
            {
                "exec_time": float(run.exec_time).hex(),
                "anomaly": run.anomaly,
                "migrations": run.migrations,
                "preemptions": run.preemptions,
                "trace": digest_trace(run.trace),
            }
        )

    run_experiment(
        spec,
        noise=noise,
        executor=executor if executor is not None else SerialExecutor(),
        on_run=on_run,
        policy=policy,
    )
    return {"name": case["name"], "reps": runs}
