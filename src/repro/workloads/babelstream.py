"""Babelstream benchmark model.

Five streaming kernels per iteration — ``copy``, ``mul``, ``add``,
``triad``, ``dot`` — each a short bandwidth-bound parallel region with
a barrier, repeated ``iters`` times.  This is the paper's memory-bound
pole: with every core active the kernels saturate DRAM, so giving up
cores to housekeeping barely costs throughput (the paper's clearest
pro-housekeeping case, §6 rec. 2), and a preempted thread's bandwidth
is soaked up by the others.

The ``dot`` kernel carries a reduction, which is the sub-benchmark the
paper's Fig. 2 uses for the A64FX motivation study.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.runtimes.base import Region
from repro.sim.platform import PlatformSpec
from repro.workloads.base import Workload

__all__ = ["Babelstream"]

#: arrays touched per kernel (read+write streams)
_KERNEL_ARRAYS = {
    "copy": 2,
    "mul": 2,
    "add": 3,
    "triad": 3,
    "dot": 2,
}

_KERNEL_ORDER = ("copy", "mul", "add", "triad", "dot")

#: array sizes (MB) per platform, near the paper's run lengths
_PLATFORM_ARRAY_MB = {
    "intel-9700kf": 58.0,
    "amd-9950x3d": 62.0,
    "a64fx": 256.0,
    "a64fx-reserved": 256.0,
}


class Babelstream(Workload):
    """The classic five-kernel streaming benchmark.

    Parameters
    ----------
    array_mb:
        Size of each of the three arrays in MB.
    iters:
        Benchmark iterations (Babelstream default is 100).
    kernels:
        Subset of kernels to run (Fig. 2 uses only ``dot``).
    """

    name = "babelstream"

    def __init__(
        self,
        array_mb: float = 58.0,
        iters: int = 100,
        kernels: Optional[tuple[str, ...]] = None,
    ):
        if array_mb <= 0 or iters <= 0:
            raise ValueError("array_mb and iters must be positive")
        kernels = tuple(kernels) if kernels is not None else _KERNEL_ORDER
        unknown = [k for k in kernels if k not in _KERNEL_ARRAYS]
        if unknown:
            raise ValueError(f"unknown kernels: {unknown}")
        self.array_mb = float(array_mb)
        self.iters = iters
        self.kernels = kernels

    @classmethod
    def for_platform(cls, platform: PlatformSpec, **kwargs) -> "Babelstream":
        """Calibrated instance for a platform preset."""
        kwargs.setdefault("array_mb", _PLATFORM_ARRAY_MB.get(platform.name, 58.0))
        return cls(**kwargs)

    # ------------------------------------------------------------------
    def _kernel_work(self, kernel: str, platform: PlatformSpec) -> float:
        traffic_gb = _KERNEL_ARRAYS[kernel] * self.array_mb / 1024.0
        return self.stream_seconds(traffic_gb, platform)

    def regions(self, platform: PlatformSpec, n_threads: int) -> Iterator[Region]:
        works = {k: self._kernel_work(k, platform) for k in self.kernels}
        for it in range(self.iters):
            for kernel in self.kernels:
                yield Region(
                    name=f"stream-{kernel}-{it}",
                    total_work=works[kernel],
                    mem_demand=platform.core_stream_gbs,
                    schedule="static",
                    imbalance=0.01,
                    reduction=(kernel == "dot"),
                    sycl_efficiency=0.90,
                )

    def total_work(self, platform: PlatformSpec) -> float:
        # Left to right: `sum` compensates float rounding on Python >= 3.12.
        work = 0.0
        for k in self.kernels:
            work += self._kernel_work(k, platform)
        return self.iters * work

    def estimate_duration(self, platform: PlatformSpec, n_threads: int) -> float:
        # Bandwidth-limited: per-thread rate is capped by the memory
        # system, so the naive work/threads estimate is far too low.
        # each distinct kernel once, left to right
        total_gb = 0.0
        for k in dict.fromkeys(self.kernels):
            total_gb += _KERNEL_ARRAYS[k] * self.array_mb / 1024.0
        total_gb *= self.iters
        agg_bw = min(platform.bandwidth_gbs, n_threads * platform.core_stream_gbs)
        return total_gb / agg_bw
