"""Programming-model runtimes: OpenMP-like and SYCL-like execution.

Both runtimes drive a :class:`repro.workloads.base.Workload` (a stream
of :class:`~repro.runtimes.base.Region` descriptors) on a simulated
:class:`~repro.sim.machine.Machine` using a persistent thread team.
They differ exactly where the paper says the models differ:

* :class:`~repro.runtimes.openmp.OpenMPRuntime` — fork–join regions
  with static/dynamic/guided loop schedules and an end-of-region
  barrier; static partitioning makes the slowest thread gate every
  region, the root of OpenMP's noise sensitivity.
* :class:`~repro.runtimes.sycl.SYCLRuntime` — an in-order queue with
  per-kernel submission overhead and fine-grained work-stealing
  execution; slower in the mean, but a preempted worker's chunks are
  simply stolen, which is where SYCL's resilience comes from.
"""

from repro.runtimes.base import Placement, Region, TeamRuntime
from repro.runtimes.openmp import OpenMPRuntime
from repro.runtimes.sycl import SYCLRuntime

__all__ = ["Placement", "Region", "TeamRuntime", "OpenMPRuntime", "SYCLRuntime", "get_runtime"]


def get_runtime(model: str):
    """Instantiate a runtime by its short name (``omp`` or ``sycl``)."""
    model = model.lower()
    if model in ("omp", "openmp"):
        return OpenMPRuntime()
    if model in ("sycl", "dpcpp"):
        return SYCLRuntime()
    raise KeyError(f"unknown programming model {model!r} (expected 'omp' or 'sycl')")
