"""Campaign service: durable job queue, leased workers, shared store.

Promotes campaigns from one-shot CLI invocations to a long-running
service many clients can share:

* :class:`~repro.service.queue.JobQueue` — a durable SQLite submission
  queue (submit / lease / renew / complete / fail) with lease expiry
  and attempt caps; jobs are keyed by the cell's content-hash result
  key, so identical submissions from different clients coalesce into
  one job.
* :mod:`~repro.service.scheduler` — the one lease order: queued cells
  ranked by priority, aging, expected runtime (the resolved-context
  duration estimate), cache-hit probability, shard progress and hazard.
* :class:`~repro.service.store.SharedResultStore` — the
  :class:`~repro.harness.cache.ResultCache` generalised for concurrent
  multi-process access: per-key file locks serialise the
  miss-run-store section, atomic writes keep envelopes untorn, and
  duplicate submissions are served from the store with zero
  re-simulation.
* :class:`~repro.service.worker.Worker` — a process that leases jobs,
  runs them through the existing executor / fault-policy / telemetry
  stack unchanged, and heartbeats its leases; a SIGKILLed worker's
  jobs are re-leased after expiry and re-run bit-identically (per-rep
  seeding is content-derived, never worker-derived).
* :class:`~repro.service.client.ServiceClient` — the submit/poll front
  end behind ``repro-noise service`` and the campaign
  ``submit_or_run`` seam; a shard threshold splits big cells into
  chunk sub-jobs so several workers chew one cell concurrently.
* :class:`~repro.service.notify.NotifyChannel` — fifo-based wakeups
  (submit → idle workers, complete → waiting clients) that collapse
  the poll-interval queue tax; waiters keep polling as a fallback, so
  a lost wakeup costs latency, never correctness.

The self-healing tier on top:

* :class:`~repro.service.supervisor.Supervisor` — spawns and monitors
  a fleet of worker processes: observed crashes release leases
  immediately (``report_worker_death``), restarts follow seeded
  exponential backoff with crash-loop parking, and SIGTERM drains
  gracefully (second signal = fail-fast lease release).
* **Dead-letter queue** — a job that kills two distinct workers
  mid-lease is quarantined with structured
  :class:`~repro.harness.faults.FailureRecord` forensics before it
  burns the fleet (``repro-noise service dlq list|show|retry|purge``).
* **Store integrity** — every envelope and chunk entry is sealed with
  a sha256 at publish and verified on read; corrupt entries are
  quarantined to ``.corrupt`` and transparently re-simulated.
* :func:`~repro.service.fsck.fsck` — cross-checks queue↔store
  invariants (lost results, unmergeable sharded parents, orphan chunk
  entries, leases held by dead workers) and, with ``repair=True``,
  re-queues lost work.
* Read-only views over recorded data: campaign progress/ETA
  (:func:`~repro.service.monitor.campaign_progress`, also under
  ``progress`` in ``repro-noise service status --json``), a single
  Perfetto trace stitched from per-worker telemetry and the queue's
  append-only lifecycle-events table
  (:func:`~repro.service.monitor.stitch_trace`), and the
  ``repro-noise service top`` dashboard
  (:func:`~repro.service.monitor.render_top`).  None of them writes,
  so watching a campaign cannot perturb its results.

Bit-identity is the design constraint throughout: a sweep drained
through the service — including after a mid-lease worker kill, a
corrupted store entry, and a supervisor-restarted fleet — renders
byte-identical to the same sweep run in-process.
"""

from repro.service.client import ServiceClient
from repro.service.fsck import FsckReport, fsck
from repro.service.monitor import campaign_progress, render_top, stitch_trace
from repro.service.notify import NotifyChannel, Subscription, notify_enabled
from repro.service.queue import Job, JobQueue, WorkerInfo
from repro.service.store import SharedResultStore
from repro.service.supervisor import Supervisor, WorkerSlot
from repro.service.worker import Worker

__all__ = [
    "Job",
    "JobQueue",
    "WorkerInfo",
    "NotifyChannel",
    "Subscription",
    "notify_enabled",
    "SharedResultStore",
    "ServiceClient",
    "Supervisor",
    "WorkerSlot",
    "Worker",
    "FsckReport",
    "fsck",
    "campaign_progress",
    "render_top",
    "stitch_trace",
]
