"""repro — reproducible performance evaluation under noise injection.

A full reproduction of *"Reproducible Performance Evaluation of OpenMP
and SYCL Workloads under Noise Injection"* (SC Workshops '25) as a
Python library: a simulated multicore substrate, OpenMP-like and
SYCL-like runtime models, the paper's three workloads, and — the
paper's contribution — a trace-replay noise injector with its full
collect → refine → configure → inject pipeline.

Quickstart::

    from repro import NoiseInjectionPipeline, ExperimentSpec, run_experiment

    spec = ExperimentSpec(platform="intel-9700kf", workload="nbody",
                          model="omp", strategy="Rm", reps=50, seed=7)
    baseline = run_experiment(spec)
    pipe = NoiseInjectionPipeline(spec)
    result = pipe.run()           # collect, refine, inject, measure
    print(result.summary())
"""

from repro._version import __version__
from repro.core import (
    NoiseConfig,
    NoiseInjectionPipeline,
    NoiseInjector,
    Trace,
    build_profile,
    collect_traces,
    generate_config,
    refine_worst_case,
    replication_accuracy,
)
from repro.harness.executor import ParallelExecutor, SerialExecutor, get_executor
from repro.harness.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.harness.sweep import SweepResult, sweep
from repro.mitigation.strategies import MitigationStrategy, get_strategy, STRATEGY_NAMES
from repro.sim.platform import available_platforms, get_platform

__all__ = [
    "__version__",
    "Trace",
    "NoiseConfig",
    "NoiseInjector",
    "NoiseInjectionPipeline",
    "build_profile",
    "collect_traces",
    "generate_config",
    "refine_worst_case",
    "replication_accuracy",
    "ExperimentSpec",
    "ResultSet",
    "run_experiment",
    "SerialExecutor",
    "ParallelExecutor",
    "get_executor",
    "sweep",
    "SweepResult",
    "MitigationStrategy",
    "get_strategy",
    "STRATEGY_NAMES",
    "available_platforms",
    "get_platform",
]
