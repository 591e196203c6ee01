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

While a job runs, a daemon heartbeat thread renews its lease at a
third of the lease interval.  A SIGKILLed worker stops heartbeating
and its leases expire; the queue re-leases the jobs to the next worker,
which re-runs them from their original seeds — or serves them straight
from the store if the dead worker got far enough to publish.  The
job's ``attempts`` field feeds the re-lease budget; rep-level retries
inside an attempt stay governed by the fault policy, exactly as
in-process.

Two kinds of job arrive from one lease call:

* **whole cells** run through ``get_or_run`` as before;
* **chunk sub-jobs** of a sharded cell run their rep slice directly on
  :func:`~repro.harness.chunkrunner.run_chunk` (the same code a pool
  worker runs), publish the slice as a chunk entry, and — when the
  queue says theirs was the last slice — merge the cell and finalize
  the parent.  Seeding is per-rep, so which worker runs which slice
  can never show up in the bytes.

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
import time
from typing import Optional

from repro import telemetry as _telemetry
from repro.harness.chaos import get_chaos
from repro.harness.chunkrunner import run_chunk
from repro.harness.experiment import ExperimentSpec
from repro.noise.base import NoiseStack
from repro.service.queue import DEFAULT_LEASE_S, Job, JobQueue, _chunk_key
from repro.service.store import SharedResultStore

__all__ = ["Worker"]

_log = logging.getLogger(__name__)

#: minimum interval between worker-registry heartbeat writes
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
        self._last_registry_beat = 0.0

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
                queue.deregister_worker(self.worker_id, "stopped")
            finally:
                queue.close()
        except Exception:  # pragma: no cover - nothing left to save
            pass
        finally:
            os._exit(0)

    def _registry_beat(self, state: str, force: bool = False) -> None:
        """Throttled liveness stamp in the queue's workers table,
        carrying the current lease and rep progress for ``service
        top``'s current-lease / reps-per-second columns."""
        now = time.monotonic()
        if not force and now - self._last_registry_beat < _REGISTRY_BEAT_S:
            return
        self._last_registry_beat = now
        active = self._active
        try:
            self.queue.worker_heartbeat(
                self.worker_id,
                state,
                self._jobs_done,
                current_key=active.key if active is not None else None,
                reps_done=self._reps_done,
            )
        except Exception:  # pragma: no cover - queue file vanished
            _log.debug("registry heartbeat failed for %s", self.worker_id)

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
                "renewals",
                "notify_wakes",
                "idle_waits",
            )
        }

    # ------------------------------------------------------------------
    def _heartbeat(self, job: Job, lost: threading.Event) -> threading.Thread:
        """Renew ``job``'s lease until stopped; flag ``lost`` if it slips."""
        def beat():
            interval = max(0.1, self.lease_s / 3.0)
            while not lost.wait(interval):
                if self.queue.renew(job.key, self.worker_id, self.lease_s):
                    self._counters.inc("renewals")
                    self._registry_beat("busy")
                else:
                    self._counters.inc("lease_losses")
                    lost.set()
                    return

        thread = threading.Thread(target=beat, daemon=True, name=f"hb-{job.key[:8]}")
        thread.start()
        return thread

    def run_job(self, job: Job) -> bool:
        """Execute one leased job; returns success.

        The spec arrives rep-resolved from submit (``resolve_cell``
        pinned the environment-defaulted counts), so the key this
        worker's ``get_or_run`` computes equals the job key and the
        result lands exactly where every client looks for it.
        """
        spec = ExperimentSpec.from_dict(job.spec)
        stack = NoiseStack.from_dict(job.noise) if job.noise is not None else None
        lost = threading.Event()
        heartbeat = self._heartbeat(job, lost)
        try:
            with _telemetry.span("service_job", key=job.key, label=job.label):
                self.store.get_or_run(
                    spec, noise=stack, executor=self.executor, policy=self.policy
                )
        except Exception as exc:
            lost.set()
            heartbeat.join()
            self._counters.inc("jobs_failed")
            _log.warning(
                "job %s (%s) failed in %s: %s: %s",
                job.key,
                job.label,
                self.worker_id,
                type(exc).__name__,
                exc,
            )
            self.queue.fail(job.key, self.worker_id, f"{type(exc).__name__}: {exc}")
            return False
        lost.set()
        heartbeat.join()
        if self.queue.complete(job.key, self.worker_id):
            self._counters.inc("jobs_done")
        else:
            # The lease expired mid-run (e.g. a long stop-the-world
            # pause) and the job was re-leased.  The result is in the
            # store regardless — the other lease holder will be served
            # from it — so nothing is lost but the accounting.
            self._counters.inc("lease_losses")
            _log.warning(
                "job %s finished but its lease was lost; result stored anyway",
                job.key,
            )
        return True

    def run_chunk_job(self, job: Job) -> bool:
        """Execute one leased chunk sub-job; returns success.

        The rep slice ``[chunk_start, chunk_stop)`` runs through
        :func:`~repro.harness.chunkrunner.run_chunk` — bit-identical
        to the same indices inside any in-process dispatch, because
        each rep reseeds from its own spawn key.  The finished slice is
        published as an immutable chunk entry; if the queue reports
        this was the last outstanding slice, this worker merges the
        cell into its envelope and finalizes the parent.  (A client
        racing to collect may merge first — the per-key flock makes
        that a no-op here.)
        """
        spec = ExperimentSpec.from_dict(job.spec)
        stack = NoiseStack.from_dict(job.noise) if job.noise is not None else None
        lost = threading.Event()
        heartbeat = self._heartbeat(job, lost)
        try:
            with _telemetry.span(
                "service_chunk",
                key=job.key,
                label=job.label,
                start=job.chunk_start,
                stop=job.chunk_stop,
            ):
                # A parent entry can already exist (a concurrent
                # in-process run of the same cell); computing the slice
                # again would be wasted, not wrong.
                if not self.store.has_entry(job.parent):
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
            lost.set()
            heartbeat.join()
            self._counters.inc("jobs_failed")
            _log.warning(
                "chunk %s (%s) failed in %s: %s: %s",
                job.key,
                job.label,
                self.worker_id,
                type(exc).__name__,
                exc,
            )
            self.queue.fail(job.key, self.worker_id, f"{type(exc).__name__}: {exc}")
            return False
        lost.set()
        heartbeat.join()
        last, parent = self.queue.complete_chunk(job.key, self.worker_id)
        if parent is None:
            self._counters.inc("lease_losses")
            _log.warning(
                "chunk %s finished but its lease was lost; slice stored anyway",
                job.key,
            )
            return True
        self._counters.inc("chunks_done")
        if last:
            try:
                chunks = [
                    (c.chunk_start, c.chunk_stop) for c in self.queue.children(parent)
                ]
                self.store.merge_chunks(spec, stack, parent, chunks)
                self.queue.finalize_parent(parent)
                self._counters.inc("merges")
            except Exception as exc:
                _log.warning(
                    "merge of sharded cell %s failed in %s: %s: %s",
                    parent,
                    self.worker_id,
                    type(exc).__name__,
                    exc,
                )
                # Self-healing first: a merge usually fails because a
                # slice's store entry went missing or flunked integrity
                # verification — re-queue exactly those chunks (bounded
                # by their attempt caps) so the cell re-simulates the
                # lost slices instead of failing outright.
                missing = [
                    _chunk_key(parent, start, stop)
                    for start, stop in chunks
                    if self.store.load_chunk(parent, start, stop) is None
                ]
                if missing and self.queue.requeue_children(parent, missing):
                    self._counters.inc("merge_retries")
                    _log.warning(
                        "re-queued %d lost chunk(s) of %s for re-simulation",
                        len(missing),
                        parent,
                    )
                    return True
                self.queue.fail_parent(parent, f"merge failed: {type(exc).__name__}: {exc}")
                return False
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
            while not self._stop.is_set():
                if max_jobs is not None and done >= max_jobs:
                    break
                leased = self.queue.lease(self.worker_id, limit=1, lease_s=self.lease_s)
                if not leased:
                    if drain and self.queue.drained():
                        break
                    self._registry_beat("idle")
                    if subscription.wait(self.poll_s):
                        self._counters.inc("notify_wakes")
                    else:
                        self._counters.inc("idle_waits")
                    continue
                for job in leased:
                    if chaos is not None:
                        # kill-worker chaos strikes in the most hostile
                        # window: the lease is held and nothing is in
                        # the store yet.
                        chaos.maybe_kill_worker(job.key, job.attempts)
                    self._active = job
                    self._registry_beat("busy", force=True)
                    try:
                        if job.parent is not None:
                            self.run_chunk_job(job)
                        else:
                            self.run_job(job)
                    finally:
                        self._active = None
                    done += 1
                    self._jobs_done = done
                    if job.chunk_start is not None:
                        self._reps_done += job.chunk_stop - job.chunk_start
                    else:
                        self._reps_done += int(job.spec.get("reps") or 0)
                    self._registry_beat("idle", force=True)
        finally:
            subscription.close()
            try:
                self.queue.deregister_worker(self.worker_id, "stopped")
            except Exception:  # pragma: no cover - queue file vanished
                pass
        return done
