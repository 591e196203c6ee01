"""Service worker: lease jobs, execute, stream results to the store.

A worker is a plain process (``repro-noise service start``) around the
*unchanged* execution stack: each leased job goes through
``SharedResultStore.get_or_run`` → ``run_experiment`` → the configured
:class:`~repro.harness.executor.Executor` (serial or process pool) and
whatever :class:`~repro.harness.faults.FaultPolicy` / telemetry the
worker was started with.  Nothing about execution knows it is running
under a lease, which is precisely why service results are bit-identical
to in-process ones: determinism lives in content (per-rep spawn-key
seeding), never in the transport.

One daemon thread beats for the worker's whole life: each beat is one
queue transaction that stamps its registry row and extends every lease
it holds.  A SIGKILLed worker stops beating and its leases expire; the
queue re-leases the jobs to the next worker, which re-runs them from
their original seeds — or serves them straight from the store if the
dead worker got far enough to publish.  The job's ``attempts`` field
feeds the re-lease budget; rep-level retries inside an attempt stay
governed by the fault policy, exactly as in-process.

Two kinds of job arrive from one lease call and run through one
scaffold (span, fail-on-exception, completion):

* **whole cells** run through ``get_or_run`` and complete with
  ``complete``;
* **chunk sub-jobs** of a sharded cell run their rep slice directly on
  :func:`~repro.harness.chunkrunner.run_chunk` (the same code a pool
  worker runs), publish the slice as a chunk entry and complete with
  ``complete_chunk``; when the queue says theirs was the last slice,
  the worker settles the cell through
  :func:`~repro.service.store.settle_sharded` — the one rule that
  merges it, re-queues lost slices or fails it.  Seeding is per-rep,
  so which worker runs which slice can never show up in the bytes.

When the queue is empty the worker does not spin on a poll interval:
it blocks on the queue's submit :class:`~repro.service.notify.NotifyChannel`
with the poll interval as a *timeout*, so submission-to-lease latency
is microseconds with the channel live and at worst one poll period
without it.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
from contextlib import contextmanager
from typing import Optional

from repro import telemetry as _telemetry
from repro.harness.chaos import get_chaos
from repro.harness.chunkrunner import run_chunk
from repro.harness.experiment import ExperimentSpec
from repro.service.queue import DEFAULT_LEASE_S, Job, JobQueue, revive_noise
from repro.service.store import SharedResultStore, settle_sharded

__all__ = ["Worker"]

_log = logging.getLogger(__name__)

#: longest interval between two heartbeats, well inside
#: ``DEFAULT_LOST_AFTER_S``; a lease under three of them beats faster
_REGISTRY_BEAT_S = 2.0

_telemetry.set_counter_help(
    "service_worker",
    "lease-execute loop activity (jobs, chunks, merges, lease losses, "
    "notify wakeups)",
)


class Worker:
    """Lease-execute-complete loop over a queue + shared store."""

    def __init__(
        self,
        queue: JobQueue,
        store: SharedResultStore,
        worker_id: Optional[str] = None,
        executor=None,
        policy=None,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = 0.5,
    ):
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.executor = executor
        self.policy = policy
        self.lease_s = lease_s
        self.poll_s = poll_s
        self._stop = threading.Event()
        self._counters = _telemetry.new_group("service_worker")
        #: the job currently held, for fail-fast lease release
        self._active: Optional[Job] = None
        self._jobs_done = 0
        self._reps_done = 0

    def stop(self) -> None:
        """Ask the run loop to exit after the current job."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """Graceful-drain signal protocol for standalone worker
        processes (``repro-noise service start``):

        * first ``SIGTERM``/``SIGINT``: stop leasing, finish the
          current job, release cleanly and exit;
        * second signal: fail fast — release the held lease (attempt
          refunded) and exit *now*.

        The fail-fast release runs on a spawned thread over a **fresh
        queue connection**: the signal handler interrupts the main
        thread, which may hold the existing connection's non-reentrant
        lock mid-transaction — touching it from the handler could
        deadlock the very shutdown it implements.
        """
        def handler(signum, frame):
            if not self._stop.is_set():
                _log.warning(
                    "%s: %s received, draining (finish current job, then exit;"
                    " signal again to fail fast)",
                    self.worker_id,
                    signal.Signals(signum).name,
                )
                self._stop.set()
                return
            _log.warning(
                "%s: second %s, failing fast (releasing lease)",
                self.worker_id,
                signal.Signals(signum).name,
            )
            threading.Thread(
                target=self._fail_fast_release, daemon=True, name="fail-fast"
            ).start()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    def _fail_fast_release(self) -> None:
        try:
            queue = JobQueue(self.queue.path)
            try:
                active = self._active
                if active is not None:
                    queue.release(active.key, self.worker_id)
                self._deregister(queue)
            finally:
                queue.close()
        except Exception:  # pragma: no cover - nothing left to save
            pass
        finally:
            os._exit(0)

    def _deregister(self, queue: JobQueue) -> None:
        queue.deregister_worker(
            self.worker_id, "stopped", self._jobs_done, self._reps_done
        )

    def stats(self) -> dict:
        counts = self._counters.as_dict()
        return {
            key: int(counts.get(key, 0))
            for key in (
                "jobs_done",
                "jobs_failed",
                "chunks_done",
                "merges",
                "merge_retries",
                "lease_losses",
                "notify_wakes",
                "idle_waits",
            )
        }

    # ------------------------------------------------------------------
    @contextmanager
    def _beating(self):
        """Beat while the body runs, before both the lease expiry and
        the registry's ``lost`` threshold."""
        stop = threading.Event()

        def beat():
            interval = max(0.1, min(_REGISTRY_BEAT_S, self.lease_s / 3.0))
            while not stop.wait(interval):
                active = self._active
                try:
                    self.queue.heartbeat(
                        self.worker_id,
                        active.key if active is not None else None,
                        self._jobs_done,
                        self._reps_done,
                        self.lease_s,
                    )
                except Exception:  # pragma: no cover - queue file vanished
                    _log.debug("heartbeat failed for %s", self.worker_id, exc_info=True)

        thread = threading.Thread(target=beat, daemon=True, name="heartbeat")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def run_job(self, job: Job) -> bool:
        """Execute one leased job, a whole cell or a chunk; returns success.

        The spec arrives rep-resolved from submit (``resolve_cell``
        pinned the environment-defaulted counts), so the key this
        worker computes equals the job key and the result lands exactly
        where every client looks for it.  A whole cell runs through
        ``get_or_run``.  A chunk runs its rep slice
        ``[chunk_start, chunk_stop)`` through
        :func:`~repro.harness.chunkrunner.run_chunk` — bit-identical to
        the same indices inside any in-process dispatch, because each
        rep reseeds from its own spawn key — and publishes it as a chunk
        entry; the worker whose completion was the cell's last settles
        it (:func:`~repro.service.store.settle_sharded`).
        """
        spec = ExperimentSpec.from_dict(job.spec)
        stack = revive_noise(job.noise)
        chunk = job.parent is not None
        if chunk:
            kind, span = "chunk", "service_chunk"
            extra = {"start": job.chunk_start, "stop": job.chunk_stop}
        else:
            kind, span, extra = "job", "service_job", {}
        try:
            with _telemetry.span(span, key=job.key, label=job.label, **extra):
                if not chunk:
                    self.store.get_or_run(
                        spec, noise=stack, executor=self.executor, policy=self.policy
                    )
                # A parent entry can already exist (a concurrent
                # in-process run of the same cell); computing the slice
                # again would be wasted, not wrong.
                elif not self.store.has_entry(job.parent):
                    results = run_chunk(
                        spec,
                        stack,
                        range(job.chunk_start, job.chunk_stop),
                        need_runs=False,
                        policy=self.policy,
                        base_attempt=job.attempts - 1,
                    )
                    self.store.store_chunk(
                        job.parent, job.chunk_start, job.chunk_stop, results
                    )
        except Exception as exc:
            self._counters.inc("jobs_failed")
            _log.warning(
                "%s %s (%s) failed in %s: %s: %s",
                kind,
                job.key,
                job.label,
                self.worker_id,
                type(exc).__name__,
                exc,
            )
            if not self.queue.fail(
                job.key, self.worker_id, f"{type(exc).__name__}: {exc}"
            ):
                self._counters.inc("lease_losses")
            return False
        if chunk:
            last, parent = self.queue.complete_chunk(job.key, self.worker_id)
            completed = parent is not None
        else:
            last, completed = False, self.queue.complete(job.key, self.worker_id)
        if not completed:
            # The lease expired mid-run (e.g. a long stop-the-world
            # pause) and the job was re-leased.  The result is in the
            # store regardless — the other lease holder will be served
            # from it — so nothing is lost but the accounting.
            self._counters.inc("lease_losses")
            _log.warning(
                "%s %s finished but its lease was lost; result stored anyway",
                kind,
                job.key,
            )
            return True
        self._counters.inc("chunks_done" if chunk else "jobs_done")
        if last:
            outcome = settle_sharded(self.queue, self.store, job.parent)
            if outcome == "merged":
                self._counters.inc("merges")
            elif outcome == "requeued":
                self._counters.inc("merge_retries")
            return outcome != "failed"
        return True

    def run(
        self,
        drain: bool = False,
        max_jobs: Optional[int] = None,
    ) -> int:
        """The worker loop; returns the number of jobs executed.

        ``drain=True`` exits once the queue has no queued or leased
        work; otherwise the loop runs until :meth:`stop` (or
        ``max_jobs``).  An empty queue parks the worker on the submit
        notify channel with ``poll_s`` as the fallback timeout —
        ``notify_wakes`` counts event-driven wakeups, ``idle_waits``
        the timeouts that fell back to a plain re-check.
        """
        done = 0
        chaos = get_chaos()
        self.queue.register_worker(self.worker_id, os.getpid())
        subscription = self.queue.notify_submit.subscribe(
            probe=self.queue.data_version
        )
        try:
            with self._beating():
                while not self._stop.is_set():
                    if max_jobs is not None and done >= max_jobs:
                        break
                    leased = self.queue.lease(
                        self.worker_id, limit=1, lease_s=self.lease_s
                    )
                    if not leased:
                        if drain and self.queue.drained():
                            break
                        if subscription.wait(self.poll_s):
                            self._counters.inc("notify_wakes")
                        else:
                            self._counters.inc("idle_waits")
                        continue
                    for job in leased:
                        if chaos is not None:
                            # kill-worker chaos strikes in the most
                            # hostile window: the lease is held and
                            # nothing is in the store yet.
                            chaos.maybe_kill_worker(job.key, job.attempts)
                        self._active = job
                        try:
                            self.run_job(job)
                        finally:
                            self._active = None
                        done += 1
                        self._jobs_done = done
                        if job.chunk_start is not None:
                            self._reps_done += job.chunk_stop - job.chunk_start
                        else:
                            self._reps_done += int(job.spec.get("reps") or 0)
        finally:
            subscription.close()
            try:
                self._deregister(self.queue)
            except Exception:  # pragma: no cover - queue file vanished
                pass
        return done
