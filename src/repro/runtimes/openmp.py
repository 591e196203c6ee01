"""OpenMP-like runtime model (libgomp-style fork–join).

Key behaviours reproduced:

* ``schedule(static)`` — each thread gets a fixed contiguous share and
  the end-of-region barrier waits for the slowest one.  A noise event
  that preempts one thread therefore delays the *whole region* by the
  full preemption, which is why the paper's OpenMP rows degrade most
  under injection.
* ``schedule(dynamic, c)`` / ``schedule(guided, c)`` — threads draw
  chunks from a shared pool (modelled as work-stealing drain plus a
  per-chunk acquisition cost and a straggler tail of one chunk).
* Busy-wait barriers (``OMP_WAIT_POLICY=active``): team threads keep
  their CPUs between regions, so the noise injector cannot find idle
  CPUs among workload cores — only housekeeping cores absorb noise.
* Thread pinning (``OMP_PROC_BIND=true``) versus roaming comes from
  the :class:`~repro.runtimes.base.Placement`, not the runtime.
"""

from __future__ import annotations

from repro.runtimes.base import Region, TeamRuntime, split_static

__all__ = ["OpenMPRuntime"]

#: default dynamic-chunk size as a fraction of a thread's even share
#: (libgomp's ``dynamic`` default chunk is 1 iteration; workload models
#: override it via ``Region.chunk_work``)
DEFAULT_CHUNK_FRACTION = 1.0 / 16.0


class OpenMPRuntime(TeamRuntime):
    """GCC libgomp-flavoured fork–join execution model."""

    name = "omp"

    # ------------------------------------------------------------------
    def _exec_parallel(self, region: Region) -> None:
        n = len(self.team)
        work = self.scale_work(region.total_work, region)
        if region.schedule == "static":
            if region.chunk_work > 0.0:
                # Chunked static interleaves iterations round-robin,
                # which flattens a smooth imbalance profile: the finer
                # the chunks, the closer to perfectly balanced.
                per_thread = work / n
                flatten = min(1.0, region.chunk_work / per_thread) if per_thread > 0 else 1.0
                eff_imb = region.imbalance * flatten
            else:
                eff_imb = region.imbalance
            self._exec_static_partition(region, split_static(work, n, eff_imb))
        else:
            chunk = region.chunk_work
            if chunk <= 0.0:
                chunk = (work / n) * DEFAULT_CHUNK_FRACTION
            if region.schedule == "dynamic":
                n_chunks = self.chunks_for(work, chunk)
                tail = chunk
            else:  # guided: geometrically shrinking chunks
                # Roughly n_threads * ln(total / (chunk * n)) grabs.
                import math

                ratio = max(2.0, work / max(chunk * n, 1e-12))
                n_chunks = max(n, int(n * math.log(ratio)))
                tail = chunk * 0.5
            self._exec_pool(region, work, n_chunks, tail)

    # ------------------------------------------------------------------
    def startup_cost(self, n_threads: int) -> float:
        # Thread-team creation on first parallel region.
        return 20e-6 + 5e-6 * n_threads

    def barrier_cost(self, n_threads: int) -> float:
        # Tree barrier among spinning threads.
        return 1.5e-6 + 0.15e-6 * n_threads

    def chunk_overhead(self) -> float:
        # Atomic fetch-add on the loop counter.
        return 0.15e-6
