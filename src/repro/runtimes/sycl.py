"""SYCL-like runtime model (DPC++ CPU device, in-order queue).

Key behaviours reproduced:

* every kernel submission costs host-side time (command-group capture,
  dependency analysis, enqueue) — this is why SYCL's raw times trail
  OpenMP, dramatically so for kernel-happy MiniFE;
* the CPU device executes an ND-range by fine-grained work stealing
  over the runtime's thread pool: when noise preempts a worker, its
  remaining chunks are stolen by the others, so a noise event costs
  roughly ``duration / n_threads`` instead of ``duration`` — the
  mechanism behind SYCL's resilience in Tables 3–6;
* kernels run the HeCBench SYCL implementations, whose per-kernel
  efficiency relative to the OpenMP code is a workload property
  (``Region.sycl_efficiency``).
"""

from __future__ import annotations

from repro.runtimes.base import Region, TeamRuntime

__all__ = ["SYCLRuntime"]

#: host-side latency per kernel submission (seconds)
SUBMIT_COST = 35e-6
#: work-stealing chunks per thread per kernel; higher values mean finer
#: stealing granularity (smaller straggler tail) at more per-chunk
#: overhead
OVERSUBSCRIPTION = 24


class SYCLRuntime(TeamRuntime):
    """DPC++-flavoured queue/kernel execution model."""

    name = "sycl"

    # The DPC++ runtime shows noticeably more run-to-run spread than
    # libgomp (queue construction, TBB arena state, lazy JIT) — this is
    # what keeps SYCL's baseline s.d. comparable to OpenMP's in Table 2
    # even though its kernels absorb scheduler noise better.
    runtime_jitter_sd = 0.009

    # ------------------------------------------------------------------
    def _exec_parallel(self, region: Region) -> None:
        # In-order queue: the host (master thread) pays the submission
        # cost as serial work, then the kernel drains as a stolen pool.
        master = self.team[0]
        self._submit_region = region
        master.on_complete = self._submitted
        self.machine.scheduler.assign_work(master, SUBMIT_COST)
        self.machine.scheduler.refresh(master)

    def _submitted(self, task) -> None:
        task.on_complete = None
        region = self._submit_region
        n = len(self.team)
        work = self.scale_work(region.total_work, region)
        chunk = work / (n * OVERSUBSCRIPTION) if work > 0 else 0.0
        n_chunks = n * OVERSUBSCRIPTION
        self._exec_pool(region, work, n_chunks, tail=chunk)

    # ------------------------------------------------------------------
    def scale_work(self, work: float, region: Region) -> float:
        return work * self._jitter / region.sycl_efficiency

    def startup_cost(self, n_threads: int) -> float:
        # Queue + device construction; amortised here over one run the
        # way the benchmarks' timed sections see it.
        return 300e-6

    def barrier_cost(self, n_threads: int) -> float:
        # Kernel completion notification back to the host.
        return 3e-6 + 0.1e-6 * n_threads

    def chunk_overhead(self) -> float:
        # Stealing a range slice costs more than libgomp's fetch-add.
        return 0.4e-6
