"""Cross-check the queue and the store; optionally repair.

The queue (job states) and the store (result envelopes) are two views
of the same campaign, written by different processes at different
times — crashes can strand them out of sync in ways no single
component observes:

* a job is ``done`` but its envelope is missing (worker completed the
  lease, then the entry was deleted or lost);
* an envelope or chunk entry fails sha256 verification (bit rot, a
  torn disk, the ``corrupt-store`` chaos profile);
* a ``sharded`` parent's children are all ``done`` but a chunk entry
  is missing, so no merger can ever finish the cell;
* chunk entries linger for cells that are no longer sharded (their
  merge completed elsewhere, or the cell was revived whole);
* a lease is held by a worker whose registry heartbeat says it is
  dead, stopped, or lost.

:func:`fsck` detects all of these; with ``repair=True`` it re-queues
lost work (bounded by the jobs' attempt budgets), quarantines corrupt
entries to ``.corrupt``, releases dead workers' leases through the
death-recording path (so poison detection still sees them), and
deletes orphaned chunk files.  Repair never touches healthy state and
never fabricates results — re-queued cells re-simulate from their
content-derived seeds, so a repaired campaign is bit-identical to an
undisturbed one.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field

from repro import telemetry as _telemetry
from repro.service.queue import _REVIVE_SET, DEFAULT_LOST_AFTER_S, JobQueue
from repro.service.store import SharedResultStore

__all__ = ["FsckReport", "fsck"]

_log = logging.getLogger(__name__)


@dataclass
class FsckReport:
    """What :func:`fsck` found (and, under ``repair``, did)."""

    #: jobs marked ``done`` whose primary envelope is missing
    done_without_entry: list = field(default_factory=list)
    #: envelopes/chunk entries that failed sha256 verification
    corrupt_entries: list = field(default_factory=list)
    #: sharded parents whose done children lack chunk entries
    unmergeable_parents: list = field(default_factory=list)
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
            or self.unmergeable_parents
            or self.orphan_chunks
            or self.dead_worker_leases
        )

    def summary(self) -> str:
        if self.clean and not self.repairs:
            return "fsck: queue and store are consistent"
        lines = []
        for title, items in (
            ("done without store entry", self.done_without_entry),
            ("corrupt (sha256 mismatch)", self.corrupt_entries),
            ("unmergeable sharded parents", self.unmergeable_parents),
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


def _entry_ok(store: SharedResultStore, path) -> bool:
    """Parse + verify one sealed envelope file without side effects."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return store._verify_sealed(data)


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
        if path.exists():
            if _entry_ok(store, path):
                continue
            report.corrupt_entries.append(job.key)
            if repair:
                store._quarantine_corrupt(path, job.label)
        else:
            # A skip-policy partial is quarantined by design, not lost.
            if path.with_name(f"{job.key}.partial.json").exists():
                continue
            report.done_without_entry.append(job.key)
        if repair and _requeue_done(queue, job.key):
            report.repairs.append(f"re-queued {job.key} (lost/corrupt result)")

    # -- sharded parents whose merge can never complete ---------------
    for job in jobs:
        if job.status != "sharded":
            continue
        if store.has_entry(job.key):
            continue
        children = queue.children(job.key)
        if not children or any(c.status not in ("done", "queued", "leased") for c in children):
            continue
        lost = [
            c.key
            for c in children
            if c.status == "done"
            and store.load_chunk(job.key, c.chunk_start, c.chunk_stop) is None
        ]
        if lost:
            report.unmergeable_parents.append(job.key)
            if repair:
                n = queue.requeue_children(job.key, lost)
                if n:
                    report.repairs.append(
                        f"re-queued {n} lost chunk(s) of sharded parent {job.key}"
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
        ("unmergeable_parents", report.unmergeable_parents),
        ("orphan_chunks", report.orphan_chunks),
        ("dead_worker_leases", report.dead_worker_leases),
    ):
        if items:
            counters.inc(name, len(items))
    if report.repairs:
        counters.inc("repairs", len(report.repairs))
    return report


def _requeue_done(queue: JobQueue, key: str) -> bool:
    """Revive one ``done``-but-resultless job back to ``queued``."""
    def body(conn):
        cur = conn.execute(
            f"UPDATE jobs SET status = 'queued', {_REVIVE_SET}"
            " WHERE key = ? AND status = 'done'",
            (key,),
        )
        if cur.rowcount:
            queue._event(conn, key, "retry", detail="fsck: lost or corrupt result")
        return cur.rowcount > 0

    requeued = queue._write_txn(body)
    if requeued:
        queue.notify_submit.notify()
    return requeued
