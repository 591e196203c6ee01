"""Unified noise abstraction: one protocol, one registry, one stack.

Every noise mechanism in the repo — the paper's trace-replay injector,
synthetic background OS activity, I/O interference, memory-bandwidth
hogs, and the HPAS-style generators — is one :class:`NoiseSource`
class that holds its own parameters, arms its own events, and
registers under a string ``kind``.  A :class:`NoiseStack` composes any
of them into a single run:

    from repro.noise import NoiseStack, parse_noise_spec
    stack = NoiseStack([
        parse_noise_spec("trace-replay:path=noise_config.json"),
        parse_noise_spec("io:start=0.05,duration=0.3"),
        parse_noise_spec("memory:start=0.0,duration=0.5,bandwidth_gbs=20"),
    ])
    run_experiment(spec, noise=stack)

See ``docs/noise_sources.md`` for the protocol contract, the ``--noise``
CLI syntax, and how to add a new source.
"""

from repro.noise.base import (
    REQUIRED,
    SCHEMA_VERSION,
    AttachedSource,
    NoiseSource,
    NoiseStack,
    available_sources,
    cpu_list,
    get_source_type,
    parse_noise_spec,
    register_source,
    source_from_dict,
    source_from_json,
)
from repro.noise.background import (
    BackgroundNoiseSource,
    environment_from_dict,
    environment_to_dict,
)
from repro.noise.sources import (
    HpasCacheThrashSource,
    IoBurst,
    MemoryNoiseEvent,
    HpasCpuOccupySource,
    HpasMemoryBandwidthSource,
    IoNoiseSource,
    MemoryNoiseSource,
    TraceReplaySource,
)

__all__ = [
    "REQUIRED",
    "SCHEMA_VERSION",
    "AttachedSource",
    "NoiseSource",
    "NoiseStack",
    "available_sources",
    "cpu_list",
    "get_source_type",
    "parse_noise_spec",
    "register_source",
    "source_from_dict",
    "source_from_json",
    "TraceReplaySource",
    "IoNoiseSource",
    "MemoryNoiseSource",
    "HpasCpuOccupySource",
    "HpasMemoryBandwidthSource",
    "HpasCacheThrashSource",
    "IoBurst",
    "MemoryNoiseEvent",
    "BackgroundNoiseSource",
    "environment_from_dict",
    "environment_to_dict",
]
