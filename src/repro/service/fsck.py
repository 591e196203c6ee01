"""Cross-check the queue and the store; optionally repair.

The queue (job states) and the store (result envelopes) are two views
of the same campaign, written by different processes at different
times — crashes can strand them out of sync in ways no single
component observes:

* a job is ``done`` but its envelope is missing (worker completed the
  lease, then the entry was deleted or lost);
* an envelope is torn, fails sha256 verification or carries a stale
  ``key_version`` (bit rot, a torn disk, the ``corrupt-store`` chaos
  profile, an entry from an older key version) — the faults the
  cache's one read rule would evict on the next lookup;
* a ``sharded`` parent's children are all ``done`` but the parent is
  not settled — its merging worker died, or a chunk entry was lost —
  so nothing else will ever finish the cell;
* chunk entries linger for cells that are no longer sharded (their
  merge completed elsewhere, or the cell was revived whole);
* a lease is held by a worker whose registry heartbeat says it is
  dead, stopped, or lost.

:func:`fsck` detects all of these; with ``repair=True`` it re-queues
lost work (bounded by the jobs' attempt budgets), evicts faulted
entries under that same rule, settles unsettled sharded parents through
the one rule the worker and client use
(:func:`~repro.service.store.settle_sharded`: merge, else re-queue lost
slices, else fail the parent), releases dead workers' leases through
the death-recording path (so poison detection still sees them), and
deletes orphaned chunk files.  Repair never touches healthy state and
never fabricates results — re-queued cells re-simulate from their
content-derived seeds, so a repaired campaign is bit-identical to an
undisturbed one.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

from repro import telemetry as _telemetry
from repro.service.queue import DEFAULT_LOST_AFTER_S, JobQueue
from repro.service.store import SharedResultStore, settle_sharded

__all__ = ["FsckReport", "fsck"]

_log = logging.getLogger(__name__)


@dataclass
class FsckReport:
    """What :func:`fsck` found (and, under ``repair``, did)."""

    #: jobs marked ``done`` whose primary envelope is missing
    done_without_entry: list = field(default_factory=list)
    #: done jobs whose envelope is torn, seal-failed or stale
    corrupt_entries: list = field(default_factory=list)
    #: sharded parents whose every chunk is done but which are not
    #: settled: mergeable ones, and ones stuck on a lost chunk entry
    unsettled_parents: list = field(default_factory=list)
    #: chunk files on disk with no live sharded parent behind them
    orphan_chunks: list = field(default_factory=list)
    #: leases held by workers the registry says are dead/stopped/lost
    dead_worker_leases: list = field(default_factory=list)
    #: repair actions taken (strings, human-oriented)
    repairs: list = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not (
            self.done_without_entry
            or self.corrupt_entries
            or self.unsettled_parents
            or self.orphan_chunks
            or self.dead_worker_leases
        )

    def summary(self) -> str:
        if self.clean and not self.repairs:
            return "fsck: queue and store are consistent"
        lines = []
        for title, items in (
            ("done without store entry", self.done_without_entry),
            ("corrupt or stale store entries", self.corrupt_entries),
            ("unsettled sharded parents", self.unsettled_parents),
            ("orphan chunk entries", self.orphan_chunks),
            ("leases held by dead workers", self.dead_worker_leases),
        ):
            if items:
                lines.append(f"fsck: {len(items)} {title}: {', '.join(items)}")
        for action in self.repairs:
            lines.append(f"fsck: repaired: {action}")
        if not self.repaired and not self.clean:
            lines.append("fsck: run with --repair to re-queue lost work")
        return "\n".join(lines)


def fsck(
    queue: JobQueue,
    store: SharedResultStore,
    repair: bool = False,
    lost_after_s: float = DEFAULT_LOST_AFTER_S,
) -> FsckReport:
    """Cross-check queue↔store invariants; see the module docstring.

    Safe to run against a live service: every repair goes through the
    queue's own transactional methods, so it composes with concurrent
    workers exactly like any other client.
    """
    report = FsckReport(repaired=repair)
    counters = _telemetry.get_group("service_fsck")
    jobs = queue.jobs()
    by_key = {job.key: job for job in jobs}
    now = time.time()

    # -- leases held by dead/lost workers -----------------------------
    worker_state = {
        info.id: info.derived_state(now, lost_after_s) for info in queue.workers()
    }
    for job in jobs:
        if job.status != "leased":
            continue
        state = worker_state.get(job.lease_owner)
        if state in ("dead", "stopped", "lost"):
            report.dead_worker_leases.append(job.key)
            if repair:
                # The death-recording path: lease released now, death
                # counted, poison detection consulted.
                queue.report_worker_death(
                    job.lease_owner,
                    detail=f"fsck: lease holder registry state is {state}",
                )
                report.repairs.append(
                    f"released lease on {job.key} ({job.lease_owner} is {state})"
                )

    # -- done jobs vs the store ---------------------------------------
    for job in jobs:
        if job.status != "done" or job.parent is not None:
            continue
        path = store.entry_path(job.key)
        fault = store._parse(path)[1]
        if fault is None:
            continue
        if fault != "missing":
            report.corrupt_entries.append(job.key)
        elif path.with_name(f"{job.key}.partial.json").exists():
            continue  # a skip-policy partial is quarantined by design, not lost
        else:
            report.done_without_entry.append(job.key)
        # The read applies the fault rule, and a result a worker
        # re-published since the check is served rather than re-queued.
        if (
            repair
            and store._read(path, job.label) is None
            and queue.requeue_done(job.key)
        ):
            report.repairs.append(f"re-queued {job.key} (lost/corrupt result)")

    # -- sharded parents nothing else will settle ---------------------
    for job in jobs:
        if job.status != "sharded":
            continue
        children = queue.children(job.key)
        if not children or any(c.status != "done" for c in children):
            continue
        report.unsettled_parents.append(job.key)
        outcome = settle_sharded(queue, store, job.key) if repair else None
        if outcome == "merged":
            report.repairs.append(f"merged sharded parent {job.key}")
        elif outcome == "requeued":
            report.repairs.append(f"re-queued lost chunk(s) of sharded parent {job.key}")
        elif outcome == "failed":
            report.repairs.append(
                f"failed sharded parent {job.key} (merge failed, nothing to re-queue)"
            )

    # -- orphan chunk files -------------------------------------------
    if store.enabled and store.root.is_dir():
        for path in sorted(store.root.glob("*.chunk-*.json")):
            parent_key = path.name.split(".chunk-")[0]
            parent = by_key.get(parent_key)
            if parent is not None and parent.status == "sharded":
                continue
            report.orphan_chunks.append(path.name)
            if repair:
                path.unlink(missing_ok=True)
                report.repairs.append(f"deleted orphan chunk entry {path.name}")

    for name, items in (
        ("done_without_entry", report.done_without_entry),
        ("corrupt_entries", report.corrupt_entries),
        ("unsettled_parents", report.unsettled_parents),
        ("orphan_chunks", report.orphan_chunks),
        ("dead_worker_leases", report.dead_worker_leases),
    ):
        if items:
            counters.inc(name, len(items))
    if report.repairs:
        counters.inc("repairs", len(report.repairs))
    return report

