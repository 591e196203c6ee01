"""Platform presets mirroring the paper's three machines.

Numbers are order-of-magnitude calibrations, not datasheet claims: the
reproduction targets the *shape* of the paper's results (which strategy
wins, by roughly what factor), so what matters is the ratio between
compute throughput and memory bandwidth, the SMT arrangement, and the
noise environment (desktop Ubuntu with a GUI vs. a quiet HPC node).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.cpu import Topology
from repro.sim.noise import NoiseEnvironment, desktop_noise, hpc_noise

__all__ = ["PlatformSpec", "get_platform", "available_platforms"]


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of a machine.

    Parameters
    ----------
    core_gflops:
        Per-core compute throughput; workload models divide their flop
        counts by this to obtain seconds of work.
    bandwidth_gbs:
        Sustained DRAM bandwidth for the whole socket.
    tick_hz:
        Kernel timer frequency (Ubuntu ships CONFIG_HZ=250).
    """

    name: str
    topology: Topology
    core_gflops: float
    bandwidth_gbs: float
    #: streaming bandwidth a single core can sustain (GB/s); per-thread
    #: memory demand of streaming kernels
    core_stream_gbs: float = 12.0
    tick_hz: int = 250
    noise: NoiseEnvironment = field(default_factory=desktop_noise)

    def user_cpus(self) -> tuple[int, ...]:
        """Logical CPUs available to user workloads."""
        return self.topology.user_cpus()

    def with_noise(self, noise: NoiseEnvironment) -> "PlatformSpec":
        """Copy of this platform with a different noise environment."""
        return replace(self, noise=noise)


def _intel_9700kf() -> PlatformSpec:
    # 8 cores, no SMT, fixed 4.7 GHz in the paper's setup.
    return PlatformSpec(
        name="intel-9700kf",
        topology=Topology(n_physical=8, smt=1),
        core_gflops=36.0,
        bandwidth_gbs=38.0,
        noise=desktop_noise(),
    )


def _amd_9950x3d() -> PlatformSpec:
    # 16 cores / 32 threads; boost behaviour left un-modelled (the paper
    # did not fix AMD clocks, one source of its platform differences).
    return PlatformSpec(
        name="amd-9950x3d",
        topology=Topology(n_physical=16, smt=2),
        core_gflops=26.0,
        bandwidth_gbs=78.0,
        noise=desktop_noise(),
    )


def _a64fx(reserved: bool) -> PlatformSpec:
    # 48 compute cores in 4 CMGs with HBM2.  The ':reserved' variant
    # models the BSC CTE-ARM firmware configuration: two assistant
    # cores (here: the two highest CPU ids of a 50-core part) hidden
    # from users and hosting OS activity.
    if reserved:
        topo = Topology(n_physical=50, smt=1, reserved_cpus=frozenset({48, 49}), numa_nodes=5)
        noise = hpc_noise(reserved_cpus=(48, 49))
        name = "a64fx-reserved"
    else:
        topo = Topology(n_physical=48, smt=1, numa_nodes=4)
        noise = hpc_noise(reserved_cpus=())
        name = "a64fx"
    return PlatformSpec(
        name=name,
        topology=topo,
        core_gflops=9.0,
        bandwidth_gbs=830.0,
        core_stream_gbs=35.0,
        tick_hz=100,
        noise=noise,
    )


def _hpc_2s64() -> PlatformSpec:
    # A generic dual-socket HPC node (2 x 32 cores, 2 NUMA domains):
    # not one of the paper's machines, but the class of system its
    # §5.1/§6 discussion extrapolates to — used by the NUMA extension
    # study to show thread pinning winning at scale.
    return PlatformSpec(
        name="hpc-2s64",
        topology=Topology(n_physical=64, smt=1, numa_nodes=2),
        core_gflops=20.0,
        bandwidth_gbs=350.0,
        core_stream_gbs=14.0,
        tick_hz=250,
        noise=hpc_noise(),
    )


_REGISTRY = {
    "intel-9700kf": _intel_9700kf,
    "amd-9950x3d": _amd_9950x3d,
    "a64fx": lambda: _a64fx(reserved=False),
    "a64fx-reserved": lambda: _a64fx(reserved=True),
    "hpc-2s64": _hpc_2s64,
}


def available_platforms() -> tuple[str, ...]:
    """Names accepted by :func:`get_platform`."""
    return tuple(sorted(_REGISTRY))


def get_platform(name: str, noise: Optional[NoiseEnvironment] = None) -> PlatformSpec:
    """Look up a platform preset by name.

    Parameters
    ----------
    noise:
        Optional replacement noise environment (e.g. a runlevel-3
        desktop without GUI noise).
    """
    try:
        spec = _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; available: {', '.join(available_platforms())}"
        ) from None
    if noise is not None:
        spec = spec.with_noise(noise)
    return spec
