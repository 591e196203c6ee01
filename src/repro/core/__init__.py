"""The paper's contribution: the trace-replay noise-injection pipeline.

Stage 1 — :mod:`repro.core.collection`: run the workload many times with
the OSnoise-style tracer enabled, keeping one trace per run.

Stage 2 — :mod:`repro.core.profile` / :mod:`repro.core.refine` /
:mod:`repro.core.merge` / :mod:`repro.core.config`: compute the average
noise profile, pick the worst-case run, subtract the average
contribution from its trace (delta refinement), merge overlapping
events, and emit a per-CPU JSON noise configuration.

Stage 3 — :mod:`repro.core.injector`: replay the configuration against
a fresh run, one injector process per configured CPU.

:mod:`repro.core.pipeline` wires the stages together;
:mod:`repro.core.accuracy` computes the replication-accuracy metric of
Table 7.
"""

from repro.core.events import EventType, POLICY_FOR_EVENT
from repro.core.trace import Trace
from repro.core.profile import NoiseProfile, SourceStats, build_profile
from repro.core.refine import refine_worst_case
from repro.core.merge import MergeStrategy, merge_events
from repro.core.config import ConfigEvent, NoiseConfig, generate_config
from repro.core.injector import NoiseInjector
from repro.core.accuracy import replication_accuracy
from repro.core.collection import CollectionResult, collect_traces
from repro.core.osnoise_import import load_osnoise_ftrace, parse_osnoise_ftrace
from repro.core.pipeline import NoiseInjectionPipeline, PipelineResult

__all__ = [
    "EventType",
    "POLICY_FOR_EVENT",
    "Trace",
    "NoiseProfile",
    "SourceStats",
    "build_profile",
    "refine_worst_case",
    "MergeStrategy",
    "merge_events",
    "ConfigEvent",
    "NoiseConfig",
    "generate_config",
    "NoiseInjector",
    "replication_accuracy",
    "CollectionResult",
    "collect_traces",
    "parse_osnoise_ftrace",
    "load_osnoise_ftrace",
    "NoiseInjectionPipeline",
    "PipelineResult",
]
