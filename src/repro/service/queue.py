r"""Durable SQLite-backed job queue for the campaign service.

One row per experiment *cell*, keyed by the cell's content-hash result
key (the :class:`~repro.harness.cache.ResultCache` key) — identical
submissions from any number of clients coalesce into a single job, and
a completed job's result is exactly the store entry under that key.
Sweeps are recorded as ordered key lists over the same jobs, so two
overlapping sweeps share cells.

Lease lifecycle::

    queued --lease--> leased --complete--> done
      ^                 |  \--fail(retryable)--> queued
      |                 \--fail(terminal)------> failed
      \--(lease expiry, attempts left)----------/

Cells whose rep count exceeds the client's shard threshold are split
into **chunk sub-jobs** (:meth:`JobQueue.submit_sharded`): a *parent*
row in status ``sharded`` plus one child row per deterministic
``chunk_range`` slice, each an ordinary leasable job any worker can
claim.  Children complete via :meth:`JobQueue.complete_chunk`, which
reports — inside the same transaction — whether that completion was
the *last* one, so exactly one worker merges the per-rep chunk arrays
back into the parent's envelope and :meth:`finalize_parent`\ s the
parent to ``done``.  A terminal chunk failure fails the parent and its
still-queued siblings; a SIGKILLed worker's chunk leases expire and
re-lease like any other job.

A worker renews its lease while running; a worker that dies silently
(SIGKILL, OOM) simply stops renewing, and the next ``lease()`` call
sweeps its expired jobs back to ``queued`` — or to ``failed`` once the
attempt cap is exhausted.  Expiry, like every other transition, runs
inside a ``BEGIN IMMEDIATE`` transaction, so exactly one worker can
hold a job at a time.

**Dead-letter path.**  Every lease lost to a dead or vanished worker is
recorded as a *death* on the job (worker id, pid, attempt, timestamp).
A job whose leases have now killed :data:`POISON_DEATHS` *distinct*
workers is presumed poisonous and moved to status ``quarantined`` —
before it burns the rest of its attempt budget taking out the fleet —
with a structured :class:`~repro.harness.faults.FailureRecord` plus the
full death forensics in its ``failure`` column.  Terminal failures
(attempt cap exhausted) carry the same structured record in ``failed``.
Quarantined jobs are surfaced via ``repro-noise service dlq
list|show|retry|purge``; :meth:`JobQueue.dlq_retry` revives a job with
a fresh budget and cleared forensics, and the revived run is
bit-identical to a clean one (seeding is content-derived).

Workers register themselves in a ``workers`` table and heartbeat it
while alive, so ``service status`` can derive a ``lost`` state from
heartbeat age instead of showing a crashed worker as active until its
lease expires.  A supervisor that *observes* a child die calls
:meth:`JobQueue.report_worker_death` to release the corpse's leases
immediately instead of waiting out the expiry.

**Lifecycle events.**  Every transition (submit / lease / renew /
expire / complete / fail / quarantine / merge / release / retry) is
appended to an ``events`` table *inside the same write transaction*
that performs it — no extra transactions, and the timeline can never
disagree with the jobs table.  Each event carries the worker id, a
wall-clock stamp and a ``time.perf_counter()`` monotonic stamp (the
clock telemetry spans use, system-wide on Linux), which is what lets
``repro-noise telemetry stitch`` attribute a job's wall time to
queue-wait / run / merge / retry phases alongside worker spans.
Recording is always on.

Durability follows the journal's conventions: WAL mode, a generous
busy timeout, and every state change committed before the call
returns.  On top of SQLite's own busy timeout, every write transaction
retries a bounded number of times with seeded jittered backoff when the
database is locked (counted as ``busy_retries`` in telemetry), so a
fleet of workers hammering one queue file degrades to waiting, never to
erroring.  The queue file can be inspected with any sqlite3 client.

State changes broadcast on two :class:`~repro.service.notify.NotifyChannel`\ s
(``<queue>.notify/submit`` wakes idle workers, ``<queue>.notify/complete``
wakes waiting clients); delivery is best-effort — waiters re-check on
wake and keep their poll interval as a timeout, so a lost wakeup costs
latency, never correctness.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import telemetry as _telemetry
from repro.harness.faults import FailureRecord
from repro.service.notify import NotifyChannel

__all__ = [
    "Job",
    "JobQueue",
    "WorkerInfo",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_LEASE_S",
    "DEFAULT_RETENTION_S",
    "DEFAULT_LOST_AFTER_S",
    "POISON_DEATHS",
]

#: lease dispatches (not rep retries) a job gets before it is failed
DEFAULT_MAX_ATTEMPTS = 3
#: seconds a lease lives without renewal
DEFAULT_LEASE_S = 60.0
#: default retention of finished (done/failed) job rows for prune()
DEFAULT_RETENTION_S = 7 * 86400.0
#: heartbeat age past which a registered worker is derived as ``lost``
DEFAULT_LOST_AFTER_S = 10.0
#: distinct workers a job may kill mid-lease before it is presumed
#: poisonous and quarantined to the dead-letter queue
POISON_DEATHS = 2
#: bounded retries of a write transaction on SQLITE_BUSY, on top of the
#: connection's own 30s busy timeout
_BUSY_RETRIES = 5

_telemetry.set_counter_help(
    "service_queue",
    "durable job-queue activity (busy retries, lease expiries, worker "
    "deaths, dead-letter traffic)",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key           TEXT PRIMARY KEY,
    spec          TEXT NOT NULL,
    noise         TEXT,
    label         TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'queued',
    priority      INTEGER NOT NULL DEFAULT 0,
    expected_s    REAL NOT NULL DEFAULT 0.0,
    cached        INTEGER NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 3,
    submitted_at  REAL NOT NULL,
    client        TEXT,
    lease_owner   TEXT,
    lease_expires REAL,
    started_at    REAL,
    finished_at   REAL,
    error         TEXT,
    parent        TEXT,
    chunk_start   INTEGER,
    chunk_stop    INTEGER
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);
CREATE TABLE IF NOT EXISTS sweeps (
    id            TEXT PRIMARY KEY,
    title         TEXT,
    definition    TEXT NOT NULL,
    submitted_at  REAL NOT NULL,
    client        TEXT
);
CREATE TABLE IF NOT EXISTS sweep_jobs (
    sweep_id  TEXT NOT NULL,
    position  INTEGER NOT NULL,
    key       TEXT NOT NULL,
    PRIMARY KEY (sweep_id, position)
);
CREATE TABLE IF NOT EXISTS workers (
    id            TEXT PRIMARY KEY,
    pid           INTEGER,
    started_at    REAL NOT NULL,
    heartbeat_at  REAL NOT NULL,
    state         TEXT NOT NULL DEFAULT 'idle',
    jobs_done     INTEGER NOT NULL DEFAULT 0,
    current_key   TEXT,
    reps_done     INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    key     TEXT NOT NULL,
    event   TEXT NOT NULL,
    worker  TEXT,
    at      REAL NOT NULL,
    mono    REAL NOT NULL,
    detail  TEXT
);
CREATE INDEX IF NOT EXISTS idx_events_key ON events(key);
"""

#: columns added after the first released schema; applied by ALTER
#: TABLE when an older queue file is opened
_MIGRATIONS = (
    ("parent", "TEXT"),
    ("chunk_start", "INTEGER"),
    ("chunk_stop", "INTEGER"),
    ("deaths", "TEXT"),
    ("failure", "TEXT"),
)

#: same, for the workers registry table (files from before the
#: observability plane lack the current-lease / rep-progress columns;
#: files from before the registry itself get the whole table from
#: ``_SCHEMA``'s CREATE TABLE IF NOT EXISTS)
_WORKER_MIGRATIONS = (
    ("current_key", "TEXT"),
    ("reps_done", "INTEGER NOT NULL DEFAULT 0"),
)

_STATUSES = ("queued", "leased", "sharded", "done", "failed", "quarantined")


def _chunk_key(key: str, start: int, stop: int) -> str:
    return f"{key}:{start}-{stop}"


@dataclass
class Job:
    """One queued cell (or chunk sub-job), as handed to a worker."""

    key: str
    spec: dict
    noise: Optional[dict]
    label: str
    status: str
    priority: int
    expected_s: float
    cached: bool
    attempts: int
    max_attempts: int
    submitted_at: float
    lease_owner: Optional[str] = None
    lease_expires: Optional[float] = None
    error: Optional[str] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: parent cell key when this row is a chunk sub-job; ``None`` for
    #: whole-cell jobs and for parent rows themselves
    parent: Optional[str] = None
    #: rep-index slice ``[chunk_start, chunk_stop)`` for chunk sub-jobs
    chunk_start: Optional[int] = None
    chunk_stop: Optional[int] = None
    #: sibling chunks already leased or done, filled in by ``lease()``
    #: for the scheduler's finish-in-flight-cells-first bonus (never
    #: persisted — it is a property of the queue snapshot, not the job)
    siblings_active: int = field(default=0, compare=False)
    #: workers that died (or vanished) while holding this job's lease:
    #: ``[{"worker", "pid", "attempt", "at", "detail"}, ...]``
    deaths: list = field(default_factory=list)
    #: structured dead-letter forensics for failed/quarantined jobs
    failure: Optional[dict] = None

    @property
    def distinct_death_workers(self) -> int:
        return len({d.get("worker") for d in self.deaths})

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "Job":
        return cls(
            key=row["key"],
            spec=json.loads(row["spec"]),
            noise=json.loads(row["noise"]) if row["noise"] else None,
            label=row["label"],
            status=row["status"],
            priority=row["priority"],
            expected_s=row["expected_s"],
            cached=bool(row["cached"]),
            attempts=row["attempts"],
            max_attempts=row["max_attempts"],
            submitted_at=row["submitted_at"],
            lease_owner=row["lease_owner"],
            lease_expires=row["lease_expires"],
            error=row["error"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
            parent=row["parent"],
            chunk_start=row["chunk_start"],
            chunk_stop=row["chunk_stop"],
            deaths=json.loads(row["deaths"]) if row["deaths"] else [],
            failure=json.loads(row["failure"]) if row["failure"] else None,
        )


@dataclass
class WorkerInfo:
    """One registered worker, with a heartbeat-derived liveness state.

    ``state`` is what the worker last declared (``idle`` / ``busy`` /
    ``stopped`` / ``dead``); :meth:`JobQueue.workers` derives ``lost``
    for declared-alive workers whose heartbeat is older than the
    threshold — a crashed worker shows as lost immediately, not as
    active until its lease expires.
    """

    id: str
    pid: Optional[int]
    started_at: float
    heartbeat_at: float
    state: str
    jobs_done: int
    #: key of the lease being executed right now (``None`` when idle)
    current_key: Optional[str] = None
    #: cumulative reps executed, for the dashboard's reps/sec column
    reps_done: int = 0

    def heartbeat_age(self, now: float) -> float:
        return max(0.0, now - self.heartbeat_at)

    def derived_state(self, now: float, lost_after_s: float = DEFAULT_LOST_AFTER_S) -> str:
        if self.state in ("idle", "busy") and self.heartbeat_age(now) > lost_after_s:
            return "lost"
        return self.state


class JobQueue:
    """The durable queue; safe for concurrent processes and threads.

    Every instance owns one connection (serialised by an internal
    lock); cross-process consistency comes from SQLite itself — WAL
    mode plus ``BEGIN IMMEDIATE`` write transactions, with a busy
    timeout that rides out lock contention instead of erroring, and a
    bounded seeded-backoff retry above that for the pathological case
    where the timeout itself expires under a worker stampede.
    """

    def __init__(
        self,
        path: os.PathLike | str,
        busy_timeout_s: float = 30.0,
        busy_retries: int = _BUSY_RETRIES,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.busy_retries = busy_retries
        self._lock = threading.Lock()
        self._counters = _telemetry.get_group("service_queue")
        # Deterministic per-instance backoff jitter: seeded from the
        # queue path and pid so two workers of one stampede desynchronise
        # the same way on every run.
        self._busy_rng = random.Random(f"{self.path}:{os.getpid()}")
        self._conn = sqlite3.connect(
            self.path,
            timeout=busy_timeout_s,
            check_same_thread=False,
            isolation_level=None,
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._migrate()
        notify_root = self.path.parent / f"{self.path.name}.notify"
        #: wakes idle workers: fired whenever a row becomes leasable
        self.notify_submit = NotifyChannel(notify_root / "submit")
        #: wakes waiting clients: fired whenever a row leaves the
        #: pending (queued/leased) set
        self.notify_complete = NotifyChannel(notify_root / "complete")

    def _migrate(self) -> None:
        """Add post-v1 columns to queue files created before them."""
        cols = {r["name"] for r in self._conn.execute("PRAGMA table_info(jobs)")}
        for name, decl in _MIGRATIONS:
            if name not in cols:
                self._conn.execute(f"ALTER TABLE jobs ADD COLUMN {name} {decl}")
        wcols = {r["name"] for r in self._conn.execute("PRAGMA table_info(workers)")}
        for name, decl in _WORKER_MIGRATIONS:
            if name not in wcols:
                self._conn.execute(f"ALTER TABLE workers ADD COLUMN {name} {decl}")
        # After the columns exist (the index of a migrated column cannot
        # be part of _SCHEMA: it would fail on a pre-migration file).
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_jobs_parent ON jobs(parent)"
        )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # write-transaction plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _is_busy(exc: BaseException) -> bool:
        if not isinstance(exc, sqlite3.OperationalError):
            return False
        text = str(exc).lower()
        return "locked" in text or "busy" in text

    def _busy_backoff(self, attempt: int) -> float:
        """Jittered exponential backoff, deterministic per instance."""
        base = 0.005 * (2 ** (attempt - 1))
        return min(0.25, base * (0.5 + 0.5 * self._busy_rng.random()))

    def _write_txn(self, body: Callable[[sqlite3.Connection], object]):
        """Run ``body(conn)`` inside ``BEGIN IMMEDIATE``, retrying the
        whole transaction (bounded, seeded backoff) when SQLite reports
        the database busy/locked despite the connection's own timeout.
        ``body`` must be a pure function of the connection state — it
        re-reads whatever it needs on every attempt.

        The ``busy-storm`` chaos profile injects synthetic
        busy errors here (never past the retry budget, so chaos storms
        degrade to backoff waits exactly like real lock contention)."""
        from repro.harness.chaos import get_chaos

        chaos = get_chaos()
        attempt = 0
        while True:
            try:
                if (
                    chaos is not None
                    and attempt < self.busy_retries
                    and chaos.busy_storm_fault()
                ):
                    raise sqlite3.OperationalError("database is locked (chaos busy storm)")
                with self._lock:
                    self._conn.execute("BEGIN IMMEDIATE")
                    try:
                        out = body(self._conn)
                        self._conn.execute("COMMIT")
                        return out
                    except BaseException:
                        try:
                            self._conn.execute("ROLLBACK")
                        except sqlite3.OperationalError:
                            pass  # BEGIN itself failed: no txn to roll back
                        raise
            except sqlite3.OperationalError as exc:
                if not self._is_busy(exc) or attempt >= self.busy_retries:
                    raise
                attempt += 1
                self._counters.inc("busy_retries")
                time.sleep(self._busy_backoff(attempt))

    def _event(
        self,
        conn: sqlite3.Connection,
        key: str,
        event: str,
        worker: Optional[str] = None,
        at: Optional[float] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Append one lifecycle event.  Caller holds the transaction —
        events ride inside the state change that caused them, so the
        timeline can never disagree with the jobs table and recording
        adds no extra transactions.  ``mono`` is ``time.perf_counter()``
        (system-wide monotonic), the clock telemetry spans use, so
        stitched traces align events with worker spans across pids."""
        conn.execute(
            "INSERT INTO events (key, event, worker, at, mono, detail)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (
                key,
                event,
                worker,
                at if at is not None else time.time(),
                time.perf_counter(),
                detail,
            ),
        )

    def stats(self) -> dict:
        """Queue-level telemetry counters (shared registry view)."""
        counts = self._counters.as_dict()
        return {
            key: int(counts.get(key, 0))
            for key in (
                "busy_retries",
                "pruned",
                "expired_requeues",
                "worker_deaths",
                "quarantined",
                "released",
                "merge_requeues",
                "dlq_retried",
            )
        }

    def data_version(self) -> int:
        """SQLite's change counter for *other* connections' commits —
        the notify channels' poll-fallback probe."""
        with self._lock:
            return int(self._conn.execute("PRAGMA data_version").fetchone()[0])

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        key: str,
        spec: dict,
        noise: Optional[dict],
        label: str,
        priority: int = 0,
        expected_s: float = 0.0,
        cached: bool = False,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        client: Optional[str] = None,
    ) -> bool:
        """Enqueue one cell; returns ``True`` if a new job was created.

        Idempotent by key: re-submitting an existing queued / leased /
        sharded / done job is a no-op (the caller shares the existing
        job's fate), while re-submitting a *failed* job revives it with
        a fresh attempt budget (stale chunk children of a previously
        sharded attempt are dropped).
        """
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                """INSERT INTO jobs (key, spec, noise, label, priority, expected_s,
                                     cached, max_attempts, submitted_at, client)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                   ON CONFLICT(key) DO UPDATE SET
                       status = 'queued', attempts = 0, error = NULL,
                       lease_owner = NULL, lease_expires = NULL,
                       submitted_at = excluded.submitted_at,
                       priority = excluded.priority,
                       max_attempts = excluded.max_attempts
                   WHERE jobs.status = 'failed'""",
                (
                    key,
                    json.dumps(spec, sort_keys=True),
                    json.dumps(noise, sort_keys=True) if noise is not None else None,
                    label,
                    priority,
                    expected_s,
                    int(cached),
                    max_attempts,
                    now,
                    client,
                ),
            )
            if cur.rowcount > 0:
                # Revived after a failed *sharded* attempt: the cell now
                # runs whole, so its stale chunk children must not linger
                # as leasable work.
                conn.execute("DELETE FROM jobs WHERE parent = ?", (key,))
                self._event(conn, key, "submit", worker=client, at=now)
            return cur.rowcount > 0

        created = self._write_txn(body)
        if created:
            self.notify_submit.notify()
        return created

    def submit_sharded(
        self,
        key: str,
        spec: dict,
        noise: Optional[dict],
        label: str,
        chunks: Sequence[tuple[int, int]],
        priority: int = 0,
        expected_s: float = 0.0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        client: Optional[str] = None,
    ) -> bool:
        """Enqueue one cell as a ``sharded`` parent plus one leasable
        chunk sub-job per ``(start, stop)`` rep slice.

        ``chunks`` must partition ``range(reps)`` in order — the caller
        derives them from the deterministic ``chunk_range`` boundaries.
        Idempotency matches :meth:`submit`: an existing non-failed job
        under ``key`` wins (returns ``False``); a failed one is revived
        as a fresh sharded attempt with fresh children.  Parent rows are
        never leasable (status ``sharded``); they hold the cell's spec
        and collect the merge. ``expected_s`` is the *whole cell's*
        estimate; children get the rep-proportional slice of it so the
        scheduler compares shards and whole cells on one scale.
        """
        if not chunks:
            raise ValueError("submit_sharded needs at least one chunk")
        spans = [(int(start), int(stop)) for start, stop in chunks]
        total = sum(stop - start for start, stop in spans)
        if total <= 0 or any(stop <= start for start, stop in spans):
            raise ValueError(f"degenerate chunk spans: {spans}")
        now = time.time()
        spec_json = json.dumps(spec, sort_keys=True)
        noise_json = json.dumps(noise, sort_keys=True) if noise is not None else None

        def body(conn: sqlite3.Connection) -> bool:
            row = conn.execute(
                "SELECT status FROM jobs WHERE key = ?", (key,)
            ).fetchone()
            if row is not None and row["status"] != "failed":
                return False
            conn.execute("DELETE FROM jobs WHERE parent = ?", (key,))
            if row is None:
                conn.execute(
                    """INSERT INTO jobs (key, spec, noise, label, status, priority,
                                         expected_s, max_attempts, submitted_at, client)
                       VALUES (?, ?, ?, ?, 'sharded', ?, ?, ?, ?, ?)""",
                    (key, spec_json, noise_json, label, priority, expected_s,
                     max_attempts, now, client),
                )
            else:
                conn.execute(
                    """UPDATE jobs SET status = 'sharded', attempts = 0, error = NULL,
                           lease_owner = NULL, lease_expires = NULL, finished_at = NULL,
                           submitted_at = ?, priority = ?, expected_s = ?,
                           max_attempts = ? WHERE key = ?""",
                    (now, priority, expected_s, max_attempts, key),
                )
            conn.executemany(
                """INSERT INTO jobs (key, spec, noise, label, priority, expected_s,
                                     max_attempts, submitted_at, client,
                                     parent, chunk_start, chunk_stop)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)""",
                [
                    (
                        _chunk_key(key, start, stop),
                        spec_json,
                        noise_json,
                        f"{label}[{start}:{stop}]",
                        priority,
                        expected_s * (stop - start) / total,
                        max_attempts,
                        now,
                        client,
                        key,
                        start,
                        stop,
                    )
                    for start, stop in spans
                ],
            )
            self._event(
                conn, key, "submit", worker=client, at=now,
                detail=f"sharded into {len(spans)} chunk(s)",
            )
            for start, stop in spans:
                self._event(
                    conn, _chunk_key(key, start, stop), "submit",
                    worker=client, at=now, detail=f"chunk [{start}:{stop})",
                )
            return True

        created = self._write_txn(body)
        if created:
            self.notify_submit.notify()
        return created

    def record_sweep(
        self,
        sweep_id: str,
        definition: dict,
        keys: Sequence[str],
        title: Optional[str] = None,
        client: Optional[str] = None,
    ) -> None:
        """Register a sweep as an ordered key list over existing jobs."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT OR REPLACE INTO sweeps (id, title, definition, submitted_at, client)"
                " VALUES (?, ?, ?, ?, ?)",
                (sweep_id, title, json.dumps(definition, sort_keys=True), now, client),
            )
            conn.execute("DELETE FROM sweep_jobs WHERE sweep_id = ?", (sweep_id,))
            conn.executemany(
                "INSERT INTO sweep_jobs (sweep_id, position, key) VALUES (?, ?, ?)",
                [(sweep_id, i, k) for i, k in enumerate(keys)],
            )

        self._write_txn(body)

    # ------------------------------------------------------------------
    # lease lifecycle
    # ------------------------------------------------------------------
    def _expire_stale(self, conn: sqlite3.Connection, now: float) -> int:
        """Sweep expired leases back to queued (or failed/quarantined).
        Caller holds the transaction.  Returns how many became leasable
        again.

        An expired lease means its holder stopped renewing — dead, or
        stalled long enough to be indistinguishable from dead — so every
        expiry is recorded as a *death* on the job and fed through
        poison detection."""
        rows = conn.execute(
            "SELECT * FROM jobs WHERE status = 'leased' AND lease_expires < ?",
            (now,),
        ).fetchall()
        requeued = 0
        for row in rows:
            outcome = self._record_death(
                conn, row, now, detail="lease expired (worker presumed dead)"
            )
            if outcome == "requeued":
                requeued += 1
        return requeued

    @staticmethod
    def _worker_pid(conn: sqlite3.Connection, worker_id) -> Optional[int]:
        row = conn.execute(
            "SELECT pid FROM workers WHERE id = ?", (worker_id,)
        ).fetchone()
        return row["pid"] if row is not None else None

    def _record_death(
        self,
        conn: sqlite3.Connection,
        row: sqlite3.Row,
        now: float,
        detail: str,
        pid: Optional[int] = None,
    ) -> str:
        """One dead worker's leased job: append the death record, then
        quarantine (poison), fail terminally (attempt cap), or requeue.
        Caller holds the transaction.  Returns the outcome, one of
        ``"quarantined"`` / ``"failed"`` / ``"requeued"``."""
        owner = row["lease_owner"]
        if pid is None:
            pid = self._worker_pid(conn, owner)
        deaths = json.loads(row["deaths"]) if row["deaths"] else []
        deaths.append(
            {
                "worker": owner,
                "pid": pid,
                "attempt": row["attempts"],
                "at": now,
                "detail": detail,
            }
        )
        deaths_json = json.dumps(deaths)
        self._counters.inc("worker_deaths")
        self._event(conn, row["key"], "expire", worker=owner, at=now, detail=detail)
        distinct = {d.get("worker") for d in deaths}
        if len(distinct) >= POISON_DEATHS:
            error = (
                f"poison: killed {len(distinct)} distinct worker(s) mid-lease"
                f" ({', '.join(sorted(str(w) for w in distinct))})"
            )
            self._to_dlq(conn, row, now, deaths_json, error, reason="poison")
            return "quarantined"
        if row["attempts"] >= row["max_attempts"]:
            error = (
                f"lease expired after {row['attempts']} attempt(s); "
                f"last owner {owner}"
            )
            self._to_dlq(
                conn, row, now, deaths_json, error,
                reason="attempts-exhausted", status="failed",
            )
            return "failed"
        conn.execute(
            "UPDATE jobs SET status = 'queued', lease_owner = NULL,"
            " lease_expires = NULL, deaths = ? WHERE key = ?",
            (deaths_json, row["key"]),
        )
        return "requeued"

    def _to_dlq(
        self,
        conn: sqlite3.Connection,
        row: sqlite3.Row,
        now: float,
        deaths_json: str,
        error: str,
        reason: str,
        status: str = "quarantined",
    ) -> None:
        """Park a job terminally with structured dead-letter forensics:
        a :class:`FailureRecord` plus the spec/chunk/death history that
        ``dlq show`` renders.  Caller holds the transaction."""
        record = FailureRecord(
            index=row["chunk_start"] if row["chunk_start"] is not None else -1,
            phase="service",
            error="PoisonJob" if reason == "poison" else "LeaseExhausted",
            message=error[:500],
            traceback_digest="-",
            attempts=row["attempts"],
            wall_time=max(0.0, now - (row["started_at"] or now)),
        )
        failure = {
            "reason": reason,
            "record": record.to_dict(),
            "label": row["label"],
            "spec": json.loads(row["spec"]),
            "chunk": (
                [row["chunk_start"], row["chunk_stop"]]
                if row["chunk_start"] is not None
                else None
            ),
            "deaths": json.loads(deaths_json) if deaths_json else [],
            "at": now,
        }
        conn.execute(
            "UPDATE jobs SET status = ?, finished_at = ?, error = ?,"
            " deaths = ?, failure = ?, lease_owner = NULL, lease_expires = NULL"
            " WHERE key = ?",
            (status, now, error, deaths_json, json.dumps(failure), row["key"]),
        )
        if status == "quarantined":
            self._counters.inc("quarantined")
        self._event(
            conn,
            row["key"],
            "quarantine" if status == "quarantined" else "fail",
            worker=row["lease_owner"],
            at=now,
            detail=f"{reason}: {error[:200]}",
        )
        if row["parent"] is not None:
            self._fail_parent_of(conn, row["parent"], row["key"], error, now)

    def _fail_parent_of(
        self, conn: sqlite3.Connection, parent: str, chunk_key: str, error: str, now: float
    ) -> None:
        """A chunk failed terminally: fail its parent cell and every
        still-queued sibling (leased siblings finish harmlessly — their
        chunk entries are ignored once the parent is failed)."""
        cur = conn.execute(
            "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
            " WHERE key = ? AND status = 'sharded'",
            (now, f"chunk {chunk_key} failed: {error}", parent),
        )
        if cur.rowcount:
            self._event(
                conn, parent, "fail", at=now,
                detail=f"terminal: chunk {chunk_key} failed",
            )
        conn.execute(
            "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
            " WHERE parent = ? AND status = 'queued'",
            (now, f"sibling chunk of {parent} failed", parent),
        )

    def lease(
        self,
        owner: str,
        limit: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
        scheduler=None,
    ) -> list[Job]:
        """Atomically claim up to ``limit`` queued jobs for ``owner``.

        Expired leases are swept first, so a dead worker's jobs become
        claimable here without any separate reaper process.  Candidate
        order is the :class:`~repro.service.scheduler.Scheduler`'s
        ranking when one is supplied, else FIFO by submission time
        (deterministically tie-broken by key either way).  Chunk
        sub-jobs carry ``siblings_active`` (leased + done siblings) so
        the scheduler can prefer finishing in-flight cells.
        """
        now = time.time()

        def body(conn: sqlite3.Connection):
            requeued = self._expire_stale(conn, now)
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status = 'queued'"
                " ORDER BY submitted_at, key"
            ).fetchall()
            jobs = [Job.from_row(r) for r in rows]
            if any(job.parent is not None for job in jobs):
                progress = {
                    r["parent"]: r["n"]
                    for r in conn.execute(
                        "SELECT parent, COUNT(*) AS n FROM jobs"
                        " WHERE parent IS NOT NULL AND status IN ('leased', 'done')"
                        " GROUP BY parent"
                    )
                }
                for job in jobs:
                    if job.parent is not None:
                        job.siblings_active = progress.get(job.parent, 0)
            if scheduler is not None:
                jobs = scheduler.rank(jobs, now)
            claimed = jobs[: max(0, limit)]
            for job in claimed:
                conn.execute(
                    "UPDATE jobs SET status = 'leased', lease_owner = ?,"
                    " lease_expires = ?, attempts = attempts + 1,"
                    " started_at = COALESCE(started_at, ?) WHERE key = ?",
                    (owner, now + lease_s, now, job.key),
                )
                job.status = "leased"
                job.lease_owner = owner
                job.lease_expires = now + lease_s
                job.attempts += 1
                self._event(
                    conn, job.key, "lease", worker=owner, at=now,
                    detail=f"attempt {job.attempts}",
                )
            return claimed, requeued

        claimed, requeued = self._write_txn(body)
        if requeued:
            self._counters.inc("expired_requeues", requeued)
            self.notify_submit.notify()
        return claimed

    def renew(self, key: str, owner: str, lease_s: float = DEFAULT_LEASE_S) -> bool:
        """Extend ``owner``'s lease; ``False`` if the lease was lost."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires = ? WHERE key = ? AND"
                " status = 'leased' AND lease_owner = ?",
                (now + lease_s, key, owner),
            )
            if cur.rowcount > 0:
                self._event(conn, key, "renew", worker=owner, at=now)
            return cur.rowcount > 0

        return self._write_txn(body)

    def complete(self, key: str, owner: str) -> bool:
        """Mark ``owner``'s leased job done; ``False`` if lease was lost."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, error = NULL"
                " WHERE key = ? AND status = 'leased' AND lease_owner = ?",
                (now, key, owner),
            )
            if cur.rowcount > 0:
                self._event(conn, key, "complete", worker=owner, at=now)
            return cur.rowcount > 0

        done = self._write_txn(body)
        if done:
            self.notify_complete.notify()
        return done

    def complete_chunk(self, key: str, owner: str) -> tuple[bool, Optional[str]]:
        """Mark ``owner``'s leased chunk done; returns ``(last, parent)``.

        ``last`` is ``True`` iff this completion left the parent in
        status ``sharded`` with zero unfinished children — decided
        inside the write transaction, so under any interleaving exactly
        one completer observes it and performs the merge.  A lost lease
        returns ``(False, None)``; the re-leased twin will store the
        identical chunk bytes anyway.
        """
        now = time.time()

        def body(conn: sqlite3.Connection) -> tuple[bool, Optional[str]]:
            row = conn.execute(
                "SELECT parent FROM jobs WHERE key = ? AND status = 'leased'"
                " AND lease_owner = ?",
                (key, owner),
            ).fetchone()
            if row is None or row["parent"] is None:
                return False, None
            conn.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, error = NULL"
                " WHERE key = ?",
                (now, key),
            )
            self._event(conn, key, "complete", worker=owner, at=now)
            parent = row["parent"]
            prow = conn.execute(
                "SELECT status FROM jobs WHERE key = ?", (parent,)
            ).fetchone()
            remaining = conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE parent = ? AND status != 'done'",
                (parent,),
            ).fetchone()["n"]
            last = prow is not None and prow["status"] == "sharded" and remaining == 0
            return last, parent

        last, parent = self._write_txn(body)
        if parent is not None:
            self.notify_complete.notify()
        return last, parent

    def finalize_parent(self, key: str) -> bool:
        """Move a fully-merged ``sharded`` parent to ``done``."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, error = NULL"
                " WHERE key = ? AND status = 'sharded'",
                (now, key),
            )
            if cur.rowcount > 0:
                self._event(conn, key, "merge", at=now)
            return cur.rowcount > 0

        done = self._write_txn(body)
        if done:
            self.notify_complete.notify()
        return done

    def fail_parent(self, key: str, error: str) -> bool:
        """Fail a ``sharded`` parent directly (merge could not complete)
        along with its still-queued children."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
                " WHERE key = ? AND status = 'sharded'",
                (now, error, key),
            )
            if cur.rowcount:
                self._event(conn, key, "fail", at=now, detail=f"terminal: {error[:200]}")
                conn.execute(
                    "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
                    " WHERE parent = ? AND status = 'queued'",
                    (now, f"sibling merge of {key} failed", key),
                )
            return cur.rowcount > 0

        failed = self._write_txn(body)
        if failed:
            self.notify_complete.notify()
        return failed

    def fail(self, key: str, owner: str, error: str, retryable: bool = True) -> bool:
        """Record a failed execution: requeue if attempts remain (and the
        failure is retryable), else fail terminally with a structured
        :class:`FailureRecord` in the ``failure`` column.  A terminal
        chunk failure propagates to its parent cell and queued siblings."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> Optional[bool]:
            row = conn.execute(
                "SELECT * FROM jobs WHERE key = ? AND"
                " status = 'leased' AND lease_owner = ?",
                (key, owner),
            ).fetchone()
            if row is None:
                return None
            if retryable and row["attempts"] < row["max_attempts"]:
                conn.execute(
                    "UPDATE jobs SET status = 'queued', lease_owner = NULL,"
                    " lease_expires = NULL, error = ? WHERE key = ?",
                    (error, key),
                )
                self._event(
                    conn, key, "fail", worker=owner, at=now,
                    detail=f"retryable: {error[:200]}",
                )
                return True  # requeued
            record = FailureRecord(
                index=row["chunk_start"] if row["chunk_start"] is not None else -1,
                phase="service",
                error="JobFailed",
                message=error[:500],
                traceback_digest="-",
                attempts=row["attempts"],
                wall_time=max(0.0, now - (row["started_at"] or now)),
            )
            failure = {
                "reason": "execution" if retryable else "terminal",
                "record": record.to_dict(),
                "label": row["label"],
                "spec": json.loads(row["spec"]),
                "chunk": (
                    [row["chunk_start"], row["chunk_stop"]]
                    if row["chunk_start"] is not None
                    else None
                ),
                "deaths": json.loads(row["deaths"]) if row["deaths"] else [],
                "at": now,
            }
            conn.execute(
                "UPDATE jobs SET status = 'failed', finished_at = ?,"
                " error = ?, failure = ? WHERE key = ?",
                (now, error, json.dumps(failure), key),
            )
            self._event(
                conn, key, "fail", worker=owner, at=now,
                detail=f"terminal: {error[:200]}",
            )
            if row["parent"] is not None:
                self._fail_parent_of(conn, row["parent"], key, error, now)
            return False  # terminal

        requeued = self._write_txn(body)
        if requeued is None:
            return False
        if requeued:
            self.notify_submit.notify()
        else:
            self.notify_complete.notify()
        return True

    def report_worker_death(
        self, owner: str, pid: Optional[int] = None, detail: str = "worker died"
    ) -> list[str]:
        """A supervisor observed ``owner`` die: release its leases *now*
        (recording a death on each, with poison detection) instead of
        waiting out the lease expiry, and tombstone its registry row.
        Returns the keys whose leases were released."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> tuple[list[str], int]:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status = 'leased' AND lease_owner = ?",
                (owner,),
            ).fetchall()
            requeued = 0
            for row in rows:
                if self._record_death(conn, row, now, detail, pid=pid) == "requeued":
                    requeued += 1
            conn.execute(
                "UPDATE workers SET state = 'dead', heartbeat_at = ? WHERE id = ?",
                (now, owner),
            )
            return [r["key"] for r in rows], requeued

        keys, requeued = self._write_txn(body)
        if requeued:
            self.notify_submit.notify()
        if len(keys) > requeued:
            self.notify_complete.notify()  # something went terminal/DLQ
        return keys

    def release(self, key: str, owner: str) -> bool:
        """Voluntarily hand back a healthy lease (graceful drain): the
        job returns to ``queued`` with the attempt refunded — a clean
        shutdown must not burn the job's attempt budget or count as a
        death.  ``False`` if the lease was already lost."""
        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET status = 'queued', lease_owner = NULL,"
                " lease_expires = NULL, attempts = MAX(0, attempts - 1)"
                " WHERE key = ? AND status = 'leased' AND lease_owner = ?",
                (key, owner),
            )
            if cur.rowcount > 0:
                self._event(conn, key, "release", worker=owner)
            return cur.rowcount > 0

        released = self._write_txn(body)
        if released:
            self._counters.inc("released")
            self.notify_submit.notify()
        return released

    def requeue_children(self, parent: str, keys: Sequence[str]) -> int:
        """Self-healing merge: re-queue specific chunk children of a
        still-``sharded`` parent whose store entries went missing or
        corrupt (the merger re-simulates them instead of failing the
        cell).  Attempt budgets still apply — children already at their
        cap are left alone, so a truly broken cell cannot loop forever.
        Returns how many became leasable again."""
        if not keys:
            return 0

        def body(conn: sqlite3.Connection) -> int:
            prow = conn.execute(
                "SELECT status FROM jobs WHERE key = ?", (parent,)
            ).fetchone()
            if prow is None or prow["status"] != "sharded":
                return 0
            marks = ",".join("?" for _ in keys)
            cur = conn.execute(
                f"UPDATE jobs SET status = 'queued', lease_owner = NULL,"
                f" lease_expires = NULL, finished_at = NULL, error = NULL"
                f" WHERE parent = ? AND key IN ({marks})"
                f" AND status = 'done' AND attempts < max_attempts",
                (parent, *keys),
            )
            if cur.rowcount:
                self._event(
                    conn, parent, "retry",
                    detail=f"merge re-queued {cur.rowcount} lost chunk(s)",
                )
            return cur.rowcount

        requeued = self._write_txn(body)
        if requeued:
            self._counters.inc("merge_requeues", requeued)
            self.notify_submit.notify()
        return requeued

    # ------------------------------------------------------------------
    # worker registry
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, pid: Optional[int] = None) -> None:
        """Record a worker's existence (idempotent; re-registration
        resets its heartbeat and state)."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO workers (id, pid, started_at, heartbeat_at, state)"
                " VALUES (?, ?, ?, ?, 'idle')"
                " ON CONFLICT(id) DO UPDATE SET pid = excluded.pid,"
                " started_at = excluded.started_at,"
                " heartbeat_at = excluded.heartbeat_at, state = 'idle'",
                (worker_id, pid if pid is not None else os.getpid(), now, now),
            )

        self._write_txn(body)

    def worker_heartbeat(
        self,
        worker_id: str,
        state: str = "idle",
        jobs_done: Optional[int] = None,
        current_key: Optional[str] = None,
        reps_done: Optional[int] = None,
    ) -> None:
        """Refresh a worker's liveness stamp and declared state.

        ``current_key`` is the lease the worker is executing right now
        (``None`` clears it — an idle worker holds nothing) and
        ``reps_done`` its cumulative rep count; together they power the
        dashboard's current-lease and reps/sec columns."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> None:
            sets = ["heartbeat_at = ?", "state = ?", "current_key = ?"]
            params: list = [now, state, current_key]
            if jobs_done is not None:
                sets.append("jobs_done = ?")
                params.append(jobs_done)
            if reps_done is not None:
                sets.append("reps_done = ?")
                params.append(reps_done)
            conn.execute(
                f"UPDATE workers SET {', '.join(sets)} WHERE id = ?",
                (*params, worker_id),
            )

        self._write_txn(body)

    def deregister_worker(self, worker_id: str, state: str = "stopped") -> None:
        """Mark a worker's registry row terminal (``stopped`` on clean
        exit, ``dead`` when reported by a supervisor).  The row is kept
        — it is the pid provenance for death forensics."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE workers SET heartbeat_at = ?, state = ? WHERE id = ?",
                (now, state, worker_id),
            )

        self._write_txn(body)

    def workers(self) -> list[WorkerInfo]:
        """All registered workers, most recent heartbeat first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM workers ORDER BY heartbeat_at DESC, id"
            ).fetchall()
        return [
            WorkerInfo(
                id=r["id"],
                pid=r["pid"],
                started_at=r["started_at"],
                heartbeat_at=r["heartbeat_at"],
                state=r["state"],
                jobs_done=r["jobs_done"],
                current_key=r["current_key"],
                reps_done=r["reps_done"] or 0,
            )
            for r in rows
        ]

    # ------------------------------------------------------------------
    # dead-letter queue
    # ------------------------------------------------------------------
    def dlq_list(self) -> list[Job]:
        """Quarantined jobs, oldest quarantine first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE status = 'quarantined'"
                " ORDER BY finished_at, key"
            ).fetchall()
        return [Job.from_row(r) for r in rows]

    def dlq_retry(self, key: str) -> bool:
        """Revive a quarantined (or terminally failed) job with a fresh
        attempt budget and cleared forensics.  The revived run is
        bit-identical to a clean one — seeding is content-derived, so
        quarantine history cannot leak into results.  ``False`` if the
        key is unknown or not in a dead-letter state."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                "UPDATE jobs SET status = 'queued', attempts = 0, error = NULL,"
                " deaths = NULL, failure = NULL, lease_owner = NULL,"
                " lease_expires = NULL, finished_at = NULL, submitted_at = ?"
                " WHERE key = ? AND status IN ('quarantined', 'failed')",
                (now, key),
            )
            if cur.rowcount == 0:
                return False
            # A revived cell runs whole even if its doomed attempt was
            # sharded — stale chunk children must not linger as work.
            conn.execute("DELETE FROM jobs WHERE parent = ?", (key,))
            self._event(conn, key, "retry", at=now, detail="dlq retry: fresh budget")
            return True

        revived = self._write_txn(body)
        if revived:
            self._counters.inc("dlq_retried")
            self.notify_submit.notify()
        return revived

    def dlq_purge(self, key: Optional[str] = None) -> int:
        """Drop quarantined rows (one key, or all); returns the count.
        Purging abandons the work — collect will re-simulate in-process
        or a resubmission will start a fresh job."""
        def body(conn: sqlite3.Connection) -> int:
            if key is not None:
                return conn.execute(
                    "DELETE FROM jobs WHERE key = ? AND status = 'quarantined'",
                    (key,),
                ).rowcount
            return conn.execute(
                "DELETE FROM jobs WHERE status = 'quarantined'"
            ).rowcount

        return self._write_txn(body)

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def prune(self, older_than_s: Optional[float] = None) -> int:
        """Delete done/failed job rows finished before the retention
        window; returns how many rows went.

        The default window comes from ``REPRO_PRUNE_S`` (seconds; unset
        means 7 days).  Chunk children go with their parent; a parent is
        only pruned once none of its children are queued or leased.
        Results are untouched — they live in the store under the same
        key, so a pruned cell is still collectable and a re-submission
        is served without re-simulation.  Sweep records are kept (a few
        bytes each) so old sweeps remain renderable from the store.
        """
        if older_than_s is None:
            raw = os.environ.get("REPRO_PRUNE_S", "")
            older_than_s = float(raw) if raw else DEFAULT_RETENTION_S
        cutoff = time.time() - max(0.0, older_than_s)

        def body(conn: sqlite3.Connection) -> int:
            keys = [
                r["key"]
                for r in conn.execute(
                    "SELECT key FROM jobs j WHERE parent IS NULL"
                    " AND status IN ('done', 'failed')"
                    " AND COALESCE(finished_at, submitted_at) < ?"
                    " AND NOT EXISTS (SELECT 1 FROM jobs c WHERE c.parent = j.key"
                    "                 AND c.status IN ('queued', 'leased'))",
                    (cutoff,),
                )
            ]
            pruned = 0
            for key in keys:
                pruned += conn.execute(
                    "DELETE FROM jobs WHERE key = ? OR parent = ?", (key, key)
                ).rowcount
                # The timeline goes with the job (chunk events share the
                # parent's key prefix) — events never outlive their rows.
                conn.execute(
                    "DELETE FROM events WHERE key = ? OR key LIKE ?",
                    (key, f"{key}:%"),
                )
            return pruned

        pruned = self._write_txn(body)
        if pruned:
            self._counters.inc("pruned", pruned)
        return pruned

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def job(self, key: str) -> Optional[Job]:
        with self._lock:
            row = self._conn.execute("SELECT * FROM jobs WHERE key = ?", (key,)).fetchone()
        return Job.from_row(row) if row is not None else None

    def jobs(self, status: Optional[str] = None) -> list[Job]:
        with self._lock:
            if status is None:
                rows = self._conn.execute(
                    "SELECT * FROM jobs ORDER BY submitted_at, key"
                ).fetchall()
            else:
                rows = self._conn.execute(
                    "SELECT * FROM jobs WHERE status = ? ORDER BY submitted_at, key",
                    (status,),
                ).fetchall()
        return [Job.from_row(r) for r in rows]

    def children(self, key: str) -> list[Job]:
        """A sharded parent's chunk sub-jobs, in rep-index order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE parent = ? ORDER BY chunk_start", (key,)
            ).fetchall()
        return [Job.from_row(r) for r in rows]

    def counts(self, cells_only: bool = False) -> dict:
        """Job counts by status (every known status always present).
        ``cells_only`` drops chunk sub-jobs — the campaign-progress
        denominator counts cells, not slices."""
        sql = "SELECT status, COUNT(*) AS n FROM jobs"
        if cells_only:
            sql += " WHERE parent IS NULL"
        with self._lock:
            rows = self._conn.execute(sql + " GROUP BY status").fetchall()
        out = dict.fromkeys(_STATUSES, 0)
        for row in rows:
            out[row["status"]] = row["n"]
        return out

    def events(
        self,
        key: Optional[str] = None,
        since_seq: int = 0,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Lifecycle events in commit order, each
        ``{"seq", "key", "event", "worker", "at", "mono", "detail"}``.
        ``key`` filters to one job; ``since_seq`` resumes an earlier
        read (pass the last seq seen)."""
        sql = "SELECT * FROM events WHERE seq > ?"
        params: list = [since_seq]
        if key is not None:
            sql += " AND key = ?"
            params.append(key)
        sql += " ORDER BY seq"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [dict(r) for r in rows]

    def event_counts(self) -> dict:
        """Total recorded events per transition type — the fleet-wide
        counters the monitor exports (unlike :meth:`stats`, these are
        derived from the shared database, not this process's memory)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT event, COUNT(*) AS n FROM events GROUP BY event"
            ).fetchall()
        return {r["event"]: r["n"] for r in rows}

    def drained(self, keys: Optional[Sequence[str]] = None) -> bool:
        """No queued or leased work left (optionally among ``keys`` —
        chunk sub-jobs of a listed parent count as its work)."""
        with self._lock:
            if keys is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) AS n FROM jobs WHERE status IN ('queued', 'leased')"
                ).fetchone()
                return row["n"] == 0
            marks = ",".join("?" for _ in keys)
            row = self._conn.execute(
                f"SELECT COUNT(*) AS n FROM jobs WHERE"
                f" (key IN ({marks}) OR parent IN ({marks}))"
                " AND status IN ('queued', 'leased')",
                tuple(keys) + tuple(keys),
            ).fetchone()
            return row["n"] == 0

    def sweep(self, sweep_id: str) -> Optional[dict]:
        """The sweep's definition plus its ordered job keys."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM sweeps WHERE id = ?", (sweep_id,)
            ).fetchone()
            if row is None:
                return None
            keys = [
                r["key"]
                for r in self._conn.execute(
                    "SELECT key FROM sweep_jobs WHERE sweep_id = ? ORDER BY position",
                    (sweep_id,),
                ).fetchall()
            ]
        return {
            "id": row["id"],
            "title": row["title"],
            "definition": json.loads(row["definition"]),
            "submitted_at": row["submitted_at"],
            "client": row["client"],
            "keys": keys,
        }

    def sweep_ids(self) -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT id FROM sweeps ORDER BY submitted_at, id"
            ).fetchall()
        return [r["id"] for r in rows]
