"""Opening a first-release (PR-7-era) queue file migrates it in place.

The fixture ``tests/fixtures/queue_v7_schema.sql`` is the original
released schema — no sharding columns, no dead-letter columns, no
workers table — frozen mid-campaign with live rows.  An old queue a
user kept across an upgrade must keep working: opening it adds the
missing columns via ``ALTER TABLE`` (idempotently), and the jobs it
already held stay leasable, completable, and sweep-addressable.
"""

import sqlite3
from pathlib import Path

from repro.service import JobQueue

FIXTURE = Path(__file__).parent / "fixtures" / "queue_v7_schema.sql"

V7_ABSENT_COLUMNS = ("parent", "chunk_start", "chunk_stop", "failure")


def make_v7_queue(tmp_path):
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(FIXTURE.read_text())
    conn.commit()
    conn.close()
    return path


def columns(path):
    conn = sqlite3.connect(path)
    try:
        return {r[1] for r in conn.execute("PRAGMA table_info(jobs)")}
    finally:
        conn.close()


class TestV7Migration:
    def test_fixture_is_really_pre_migration(self, tmp_path):
        path = make_v7_queue(tmp_path)
        cols = columns(path)
        assert not cols & set(V7_ABSENT_COLUMNS)

    def test_open_adds_missing_columns_and_workers_table(self, tmp_path):
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        assert set(V7_ABSENT_COLUMNS) <= columns(path)
        assert queue.workers() == []  # registry table exists and is empty

    def test_migration_is_idempotent_across_reopens(self, tmp_path):
        path = make_v7_queue(tmp_path)
        for _ in range(3):
            queue = JobQueue(path)
            queue.close()
        cols = columns(path)
        # exactly one of each migrated column, no duplicate-add errors
        assert sum(1 for c in cols if c == "failure") == 1

    def test_pre_existing_jobs_survive_and_lease(self, tmp_path):
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        assert queue.counts()["queued"] == 1
        assert queue.counts()["done"] == 1
        old = queue.job("oldqueued")
        assert old.spec == {"k": "oldqueued"}
        assert queue.deaths("oldqueued") == []
        assert old.failure is None and old.parent is None
        (job,) = queue.lease("new-worker")
        assert job.key == "oldqueued" and job.attempts == 1
        assert queue.complete("oldqueued", "new-worker") is True
        assert queue.drained()
        # Sweeps recorded by the old schema still resolve their keys.
        assert queue.sweep("sweep-1")["keys"] == ["oldqueued", "olddone"]

    def test_migrated_queue_supports_the_new_machinery(self, tmp_path):
        """Dead-letter flow works on rows that predate its columns."""
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        for worker in ("w1", "w2"):
            (job,) = queue.lease(worker)
            assert job.key == "oldqueued"
            queue.report_worker_death(worker)
        job = queue.job("oldqueued")
        assert job.status == "quarantined"
        assert job.failure["reason"] == "poison"
        assert queue.dlq_retry("oldqueued") is True
        assert queue.job("oldqueued").status == "queued"


class TestV7ObservabilityMigration:
    """The PR-10 additions (events table, worker registry columns)
    also apply to a first-release queue file, idempotently."""

    def table_columns(self, path, table):
        conn = sqlite3.connect(path)
        try:
            return {r[1] for r in conn.execute(f"PRAGMA table_info({table})")}
        finally:
            conn.close()

    def test_open_creates_events_table_and_worker_columns(self, tmp_path):
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        assert queue.events() == []  # table exists and is empty
        cols = self.table_columns(path, "workers")
        assert {"current_key", "reps_done"} <= cols

    def test_observability_migration_is_idempotent(self, tmp_path):
        path = make_v7_queue(tmp_path)
        for _ in range(3):
            JobQueue(path).close()
        cols = self.table_columns(path, "workers")
        assert sum(1 for c in cols if c == "current_key") == 1
        assert sum(1 for c in cols if c == "reps_done") == 1
        conn = sqlite3.connect(path)
        try:
            tables = [
                r[0]
                for r in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                    " AND name='events'"
                )
            ]
        finally:
            conn.close()
        assert tables == ["events"]

    def test_old_rows_gain_lifecycle_events_going_forward(self, tmp_path):
        """Pre-event-era jobs have no history, but new transitions on
        them are recorded from the first post-upgrade write on."""
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        assert queue.events("oldqueued") == []
        (job,) = queue.lease("new-worker")
        queue.complete(job.key, "new-worker")
        assert [e["event"] for e in queue.events("oldqueued")] == [
            "lease",
            "complete",
        ]

    def test_migrated_registry_accepts_lease_telemetry(self, tmp_path):
        path = make_v7_queue(tmp_path)
        queue = JobQueue(path)
        queue.register_worker("w1", pid=99)
        queue.worker_heartbeat(
            "w1", state="busy", current_key="oldqueued", reps_done=5
        )
        (info,) = queue.workers()
        assert info.current_key == "oldqueued" and info.reps_done == 5
