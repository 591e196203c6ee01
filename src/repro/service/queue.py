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
the *last* one, so exactly one worker settles the cell
(:func:`~repro.service.store.settle_sharded`): it merges the per-rep
chunk arrays back into the parent's envelope and
:meth:`finalize_parent`\ s the parent to ``done``.  A terminal chunk
failure fails the parent and its still-queued siblings; a SIGKILLed
worker's chunk leases expire and re-lease like any other job.

A worker's heartbeat extends every lease it holds; a worker that dies
silently (SIGKILL, OOM) stops beating, and the next ``lease()`` call
sweeps its expired jobs back to ``queued`` — or to ``failed`` once the
attempt cap is exhausted.  Expiry, like every other transition, runs
inside a ``BEGIN IMMEDIATE`` transaction, so exactly one worker can
hold a job at a time.

**Dead-letter path.**  Every lease lost to a dead or vanished worker is
an ``expire`` event, and :meth:`JobQueue.deaths` derives a job's death
history (worker id, pid, attempt, timestamp) from the ``expire`` events
since its last ``submit`` or ``retry`` event.  A job whose leases have
now killed :data:`POISON_DEATHS` *distinct* workers is presumed
poisonous and moved to status ``quarantined`` — before it burns the
rest of its attempt budget taking out the fleet — with a structured
:class:`~repro.harness.faults.FailureRecord` in its ``failure`` column.
Terminal failures (attempt cap exhausted) carry the same record in
``failed``.  Quarantined jobs are surfaced via ``repro-noise service dlq
list|show|retry|purge``; :meth:`JobQueue.dlq_retry` revives a job with
a fresh budget, its ``retry`` event starts a clean history, and the
revived run is bit-identical to a clean one (seeding is
content-derived).

Workers register in a ``workers`` table, and the heartbeat that extends
a worker's leases stamps its row in the same transaction, so ``service
status`` can derive a ``lost`` state from heartbeat age instead of
showing a crashed worker as active.  A supervisor that *observes* a child die calls
:meth:`JobQueue.report_worker_death` to release the corpse's leases
immediately instead of waiting out the expiry.

**Lifecycle events.**  Every transition (submit / lease / expire /
complete / fail / quarantine / merge / release / retry) is appended to
an ``events`` table *inside the same write transaction* that performs
it — no extra transactions, and the timeline can never
disagree with the jobs table.  Each event carries the worker id, a
wall-clock stamp and a ``time.perf_counter()`` monotonic stamp (the
clock telemetry spans use, system-wide on Linux), which is what lets
``repro-noise telemetry stitch`` attribute a job's wall time to
queue-wait / run / merge / retry phases alongside worker spans.
Recording is always on.

Durability: WAL mode, a generous busy timeout, and every state change
committed before the call returns.  On top of SQLite's own busy
timeout, every write transaction retries a bounded number of times with
seeded jittered backoff when the database is locked (counted as
``busy_retries`` in telemetry), so a fleet of workers hammering one
queue file degrades to waiting, never to erroring.  The queue file can
be inspected with any sqlite3 client.

State changes broadcast on two :class:`~repro.service.notify.NotifyChannel`\ s
(``<queue>.notify/submit`` wakes idle workers, ``<queue>.notify/complete``
wakes waiting clients); delivery is best-effort — waiters re-check on
wake and keep their poll interval as a timeout, so a lost wakeup costs
latency, never correctness.
"""

from __future__ import annotations

import json
import math
import os
import random
import sqlite3
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import telemetry as _telemetry
from repro.harness.faults import FailureRecord
from repro.noise.base import NoiseStack
from repro.service.notify import NotifyChannel
from repro.service.scheduler import rank

__all__ = [
    "Job",
    "JobQueue",
    "WorkerInfo",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_LEASE_S",
    "DEFAULT_RETENTION_S",
    "DEFAULT_LOST_AFTER_S",
    "POISON_DEATHS",
    "retention_window",
    "revive_noise",
]

#: lease dispatches (not rep retries) a job gets before it is failed
DEFAULT_MAX_ATTEMPTS = 3
#: seconds a lease lives past its holder's last heartbeat
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
    "durable job-queue activity this process saw (busy retries, pruned "
    "rows); lifecycle totals are counted from the queue's events table",
)


def retention_window(value, name: str) -> float:
    """``value`` (a number or its text) as a retention window in
    seconds.  NaN, infinities, negatives and non-numbers raise a
    ``ValueError`` naming ``name``, where the value came from."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise ValueError(f"{name} must be a finite number of seconds >= 0, got {value!r}")
    return seconds


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
    chunk_stop    INTEGER,
    failure       TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);
CREATE INDEX IF NOT EXISTS idx_jobs_parent ON jobs(parent);
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
CREATE INDEX IF NOT EXISTS idx_events_expire ON events(key) WHERE event = 'expire';
"""

_STATUSES = ("queued", "leased", "sharded", "done", "failed", "quarantined")

#: the one SET clause that revives a job with a fresh attempt budget
#: (re-submission of a failed job, ``dlq retry``, ``fsck --repair``).
#: It clears no death state: the revival's own ``submit``/``retry``
#: event bounds the history :meth:`JobQueue.deaths` reads.
_REVIVE_SET = (
    "attempts = 0, error = NULL, failure = NULL, lease_owner = NULL,"
    " lease_expires = NULL, finished_at = NULL"
)

#: SQL condition on an event ``e``: newer than its key's last revival
_SINCE_REVIVAL = (
    "e.seq > (SELECT COALESCE(MAX(r.seq), 0) FROM events r"
    " WHERE r.key = e.key AND r.event IN ('submit', 'retry'))"
)


def _chunk_key(key: str, start: int, stop: int) -> str:
    return f"{key}:{start}-{stop}"


def revive_noise(payload: Optional[dict]) -> Optional[NoiseStack]:
    """A job row's (or sweep record's) ``noise`` payload as a
    :class:`~repro.noise.base.NoiseStack`; ``None`` stays ``None``."""
    return NoiseStack.from_dict(payload) if payload is not None else None


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
    #: distinct workers that died holding this job's lease since its
    #: last revival, filled in by ``lease()`` for the scheduler's hazard
    #: term (transient, like ``siblings_active``)
    dead_workers: int = field(default=0, compare=False)
    #: ``{"reason", "record", "at"}`` for failed/quarantined jobs
    failure: Optional[dict] = None

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
            self._check_schema()
            self._conn.executescript(_SCHEMA)
        notify_root = self.path.parent / f"{self.path.name}.notify"
        #: wakes idle workers: fired whenever a row becomes leasable
        self.notify_submit = NotifyChannel(notify_root / "submit")
        #: wakes waiting clients: fired whenever a row leaves the
        #: pending (queued/leased) set
        self.notify_complete = NotifyChannel(notify_root / "complete")

    def _check_schema(self) -> None:
        """Reject a file whose existing tables lack columns of ``_SCHEMA``."""
        missing = []
        with closing(sqlite3.connect(":memory:")) as ref:
            ref.executescript(_SCHEMA)
            for (table,) in ref.execute("SELECT name FROM sqlite_master WHERE type = 'table'"):
                have = {r[1] for r in self._conn.execute(f"PRAGMA table_info({table})")}
                if have:  # a table the file lacks altogether is created below
                    want = [r[1] for r in ref.execute(f"PRAGMA table_info({table})")]
                    missing += [f"{table}.{c}" for c in want if c not in have]
        if missing:
            self._conn.close()
            raise ValueError(
                f"{self.path}: queue file of an older schema, missing {', '.join(missing)}"
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
        """This process's counters for what leaves no lifecycle event
        (shared registry view); see :meth:`event_counts` for the rest."""
        counts = self._counters.as_dict()
        return {key: int(counts.get(key, 0)) for key in ("busy_retries", "pruned")}

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
        a fresh attempt budget and a clean death history, as
        :meth:`dlq_retry` does (stale chunk children of a previously
        sharded attempt are dropped).
        """
        now = time.time()

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                f"""INSERT INTO jobs (key, spec, noise, label, priority, expected_s,
                                      cached, max_attempts, submitted_at, client)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    ON CONFLICT(key) DO UPDATE SET
                        status = 'queued', {_REVIVE_SET},
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
                # runs whole.
                self._drop_children(conn, key)
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
            self._drop_children(conn, key)
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
                    f"UPDATE jobs SET status = 'sharded', {_REVIVE_SET},"
                    " submitted_at = ?, priority = ?, expected_s = ?,"
                    " max_attempts = ? WHERE key = ?",
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

        An expired lease means its holder stopped beating — dead, or
        stalled long enough to be indistinguishable from dead — so every
        expiry is recorded as a *death* on the job and fed through
        poison detection."""
        rows = conn.execute(
            "SELECT * FROM jobs WHERE status = 'leased' AND lease_expires < ?",
            (now,),
        ).fetchall()
        return sum(
            self._record_death(conn, row, now, "lease expired (worker presumed dead)")
            for row in rows
        )

    def _record_death(
        self, conn: sqlite3.Connection, row: sqlite3.Row, now: float, detail: str
    ) -> bool:
        """One dead worker's leased job: append its ``expire`` event,
        then quarantine (poison), fail terminally (attempt cap), or
        requeue.  Caller holds the transaction.  Returns whether the job
        went back to ``queued``."""
        owner = row["lease_owner"]
        self._event(conn, row["key"], "expire", worker=owner, at=now, detail=detail)
        workers = sorted({str(d["worker"]) for d in self._deaths(conn, row["key"])})
        if len(workers) >= POISON_DEATHS:
            self._finish(
                conn, row, now, "quarantined", "poison", "PoisonJob",
                f"poison: killed {len(workers)} distinct worker(s) mid-lease"
                f" ({', '.join(workers)})",
            )
            return False
        if row["attempts"] >= row["max_attempts"]:
            self._finish(
                conn, row, now, "failed", "attempts-exhausted", "LeaseExhausted",
                f"lease expired after {row['attempts']} attempt(s); last owner {owner}",
            )
            return False
        conn.execute(
            "UPDATE jobs SET status = 'queued', lease_owner = NULL,"
            " lease_expires = NULL WHERE key = ?",
            (row["key"],),
        )
        return True

    def _finish(
        self,
        conn: sqlite3.Connection,
        row: sqlite3.Row,
        now: float,
        status: str,
        reason: str,
        error_name: str,
        error: str,
    ) -> None:
        """Park a job terminally (``failed`` or ``quarantined``) with a
        structured :class:`FailureRecord`, and fail its parent cell if
        it is a chunk.  Caller holds the transaction."""
        record = FailureRecord(
            index=row["chunk_start"] if row["chunk_start"] is not None else -1,
            phase="service",
            error=error_name,
            message=error[:500],
            traceback_digest="-",
            attempts=row["attempts"],
            wall_time=max(0.0, now - (row["started_at"] or now)),
        )
        failure = {"reason": reason, "record": record.to_dict(), "at": now}
        conn.execute(
            "UPDATE jobs SET status = ?, finished_at = ?, error = ?, failure = ?,"
            " lease_owner = NULL, lease_expires = NULL WHERE key = ?",
            (status, now, error, json.dumps(failure), row["key"]),
        )
        self._event(
            conn,
            row["key"],
            "quarantine" if status == "quarantined" else "fail",
            worker=row["lease_owner"],
            at=now,
            detail=f"{reason}: {error[:200]}",
        )
        if row["parent"] is not None:
            self._fail_parent(
                conn, row["parent"], now,
                f"chunk {row['key']} failed: {error}",
                f"sibling chunk of {row['parent']} failed",
            )

    def _fail_parent(
        self, conn: sqlite3.Connection, parent: str, now: float, error: str, sibling_error: str
    ) -> bool:
        """Fail a ``sharded`` parent cell and every still-queued chunk of
        it, one ``fail`` event each (leased chunks finish harmlessly —
        their entries are ignored once the parent is failed).  Caller
        holds the transaction.  Returns whether the parent was failed."""
        failed = conn.execute(
            "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
            " WHERE key = ? AND status = 'sharded'",
            (now, error, parent),
        ).rowcount > 0
        if failed:
            self._event(conn, parent, "fail", at=now, detail=f"terminal: {error[:200]}")
        siblings = conn.execute(
            "SELECT key FROM jobs WHERE parent = ? AND status = 'queued'", (parent,)
        ).fetchall()
        conn.execute(
            "UPDATE jobs SET status = 'failed', finished_at = ?, error = ?"
            " WHERE parent = ? AND status = 'queued'",
            (now, sibling_error, parent),
        )
        for sibling in siblings:
            self._event(conn, sibling["key"], "fail", at=now, detail=f"terminal: {sibling_error}")
        return failed

    def lease(
        self,
        owner: str,
        limit: int = 1,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> list[Job]:
        """Atomically claim up to ``limit`` queued jobs for ``owner``.

        Expired leases are swept first, so a dead worker's jobs become
        claimable here without any separate reaper process.  Candidates
        go in :func:`repro.service.scheduler.rank` order.  Chunk
        sub-jobs carry ``siblings_active`` (leased + done siblings) so
        the ranking can prefer finishing in-flight cells, and every job
        carries ``dead_workers`` for its hazard term.
        """
        now = time.time()

        def body(conn: sqlite3.Connection):
            requeued = self._expire_stale(conn, now)
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status = 'queued'"
                " ORDER BY submitted_at, key"
            ).fetchall()
            jobs = [Job.from_row(r) for r in rows]
            dead = dict(conn.execute(
                "SELECT e.key, COUNT(DISTINCT e.worker) FROM jobs j"
                " JOIN events e ON e.key = j.key AND e.event = 'expire'"
                f" WHERE j.status = 'queued' AND {_SINCE_REVIVAL} GROUP BY e.key"
            ).fetchall())
            for job in jobs:
                job.dead_workers = dead.get(job.key, 0)
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
            claimed = rank(jobs, now)[: max(0, limit)]
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
            self.notify_submit.notify()
        return claimed

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
        one completer observes it and settles the cell.  A lost lease
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

        failed = self._write_txn(
            lambda conn: self._fail_parent(
                conn, key, now, error, f"sibling merge of {key} failed"
            )
        )
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
            self._finish(
                conn, row, now, "failed",
                "execution" if retryable else "terminal", "JobFailed", error,
            )
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
        waiting out the lease expiry, and tombstone its registry row
        with ``pid`` (created if the worker never registered).
        Returns the keys whose leases were released."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> tuple[list[str], int]:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status = 'leased' AND lease_owner = ?",
                (owner,),
            ).fetchall()
            requeued = sum(self._record_death(conn, row, now, detail) for row in rows)
            # The registry row is the pid provenance deaths() joins on.
            conn.execute(
                "INSERT INTO workers (id, pid, started_at, heartbeat_at, state)"
                " VALUES (?, ?, ?, ?, 'dead') ON CONFLICT(id) DO UPDATE SET"
                " state = 'dead', heartbeat_at = excluded.heartbeat_at,"
                " pid = COALESCE(excluded.pid, pid)",
                (owner, pid, now, now),
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
            self.notify_submit.notify()
        return released

    def requeue_children(self, parent: str, keys: Sequence[str]) -> int:
        """Self-healing merge: re-queue specific chunk children of a
        still-``sharded`` parent whose store entries went missing or
        corrupt (the cell re-simulates them instead of failing).
        Attempt budgets still apply — children already at their cap are
        left alone, so a truly broken cell cannot loop forever.  Returns
        how many of ``keys`` are leasable after the call, re-queued now
        or by a concurrent settler of the same parent, so two settlers
        that lost the same slice both see it coming back."""
        if not keys:
            return 0
        marks = ",".join("?" for _ in keys)

        def body(conn: sqlite3.Connection) -> int:
            prow = conn.execute(
                "SELECT status FROM jobs WHERE key = ?", (parent,)
            ).fetchone()
            if prow is None or prow["status"] != "sharded":
                return 0
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
            return conn.execute(
                f"SELECT COUNT(*) AS n FROM jobs WHERE parent = ? AND key IN ({marks})"
                " AND status IN ('queued', 'leased')",
                (parent, *keys),
            ).fetchone()["n"]

        leasable = self._write_txn(body)
        if leasable:
            self.notify_submit.notify()
        return leasable

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

    def heartbeat(
        self,
        worker_id: str,
        current_key: Optional[str],
        jobs_done: int,
        reps_done: int,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> int:
        """A worker's proof of life, in one transaction: stamp its
        registry row (``busy`` executing ``current_key``, else ``idle``,
        and its progress) unless the row is already ``stopped`` or
        ``dead``, and extend every lease it still owns to ``now +
        lease_s``.  Returns how many leases were extended."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> int:
            conn.execute(
                "UPDATE workers SET heartbeat_at = ?, current_key = ?,"
                " state = CASE WHEN ? IS NULL THEN 'idle' ELSE 'busy' END,"
                " jobs_done = ?, reps_done = ?"
                " WHERE id = ? AND state IN ('idle', 'busy')",
                (now, current_key, current_key, jobs_done, reps_done, worker_id),
            )
            return conn.execute(
                "UPDATE jobs SET lease_expires = ?"
                " WHERE status = 'leased' AND lease_owner = ?",
                (now + lease_s, worker_id),
            ).rowcount

        return self._write_txn(body)

    def deregister_worker(
        self,
        worker_id: str,
        state: str = "stopped",
        jobs_done: Optional[int] = None,
        reps_done: Optional[int] = None,
    ) -> None:
        """Mark a worker's registry row terminal (``stopped`` on clean
        exit, ``dead`` when reported by a supervisor), with its final
        progress when given.  The row is kept — it is the pid
        provenance for death forensics."""
        now = time.time()

        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE workers SET heartbeat_at = ?, state = ?, current_key = NULL,"
                " jobs_done = COALESCE(?, jobs_done),"
                " reps_done = COALESCE(?, reps_done) WHERE id = ?",
                (now, state, jobs_done, reps_done, worker_id),
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
        attempt budget and a clean death history.  The revived run is
        bit-identical to a clean one — seeding is content-derived, so
        quarantine history cannot leak into results.  ``False`` if the
        key is unknown or not in a dead-letter state."""
        return self._revive(key, ("quarantined", "failed"), "dlq retry: fresh budget")

    def requeue_done(self, key: str) -> bool:
        """Revive a ``done`` job whose result was lost or evicted from
        the store, exactly as :meth:`dlq_retry` revives a dead letter.
        ``False`` if the key is unknown or not ``done``."""
        return self._revive(key, ("done",), "lost or corrupt result")

    def _revive(self, key: str, statuses: tuple[str, ...], detail: str) -> bool:
        """Move ``key`` from one of ``statuses`` back to ``queued`` with
        a fresh budget; a cell revived from a sharded attempt runs whole,
        so its chunk rows go (:meth:`_drop_children`)."""
        now = time.time()
        marks = ",".join("?" for _ in statuses)

        def body(conn: sqlite3.Connection) -> bool:
            cur = conn.execute(
                f"UPDATE jobs SET status = 'queued', {_REVIVE_SET}, submitted_at = ?"
                f" WHERE key = ? AND status IN ({marks})",
                (now, key, *statuses),
            )
            if cur.rowcount == 0:
                return False
            self._drop_children(conn, key)
            self._event(conn, key, "retry", at=now, detail=detail)
            return True

        revived = self._write_txn(body)
        if revived:
            self.notify_submit.notify()
        return revived

    def dlq_purge(self, key: Optional[str] = None) -> int:
        """Drop quarantined rows (one key, or all) with their timelines;
        returns the count.  Purging abandons the work — collect will
        re-simulate in-process or a resubmission will start a fresh job."""
        def body(conn: sqlite3.Connection) -> int:
            keys = [
                r["key"]
                for r in conn.execute(
                    "SELECT key FROM jobs WHERE status = 'quarantined'"
                    " AND key = COALESCE(?, key)",
                    (key,),
                )
            ]
            for k in keys:
                conn.execute("DELETE FROM jobs WHERE key = ?", (k,))
                self._drop_timeline(conn, k)
            return len(keys)

        return self._write_txn(body)

    @staticmethod
    def _drop_children(conn: sqlite3.Connection, key: str) -> None:
        """Delete a revived cell's stale chunk rows with their events:
        the old chunks must neither linger as leasable work nor count
        in :meth:`event_counts` and stitched traces.  The ``LIKE`` scans
        the whole events table, so it runs only when chunk rows went:
        a fresh submit has none."""
        if conn.execute("DELETE FROM jobs WHERE parent = ?", (key,)).rowcount:
            conn.execute("DELETE FROM events WHERE key LIKE ?", (f"{key}:%",))

    @staticmethod
    def _drop_timeline(conn: sqlite3.Connection, key: str) -> None:
        """Delete a deleted job's events, its chunks' too (they share
        the key prefix): events never outlive their rows."""
        conn.execute(
            "DELETE FROM events WHERE key = ? OR key LIKE ?", (key, f"{key}:%")
        )

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def prune(self, older_than_s: Optional[float] = None) -> int:
        """Delete done/failed job rows finished before the retention
        window; returns how many rows went.

        The default window comes from ``REPRO_PRUNE_S`` (seconds; unset
        means 7 days).  A window that is NaN, infinite, negative or not
        a number raises ``ValueError``.  Chunk children go with their
        parent; a parent is only pruned once none of its children are
        queued or leased.
        Results are untouched — they live in the store under the same
        key, so a pruned cell is still collectable and a re-submission
        is served without re-simulation.  Sweep records are kept (a few
        bytes each) so old sweeps remain renderable from the store.
        """
        if older_than_s is None:
            raw = os.environ.get("REPRO_PRUNE_S", "").strip()
            older_than_s = retention_window(raw, "REPRO_PRUNE_S") if raw else DEFAULT_RETENTION_S
        else:
            older_than_s = retention_window(older_than_s, "older_than_s")
        cutoff = time.time() - older_than_s

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
                self._drop_timeline(conn, key)
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

    def deaths(self, key: str) -> list[dict]:
        """``key``'s death history since its last revival, oldest first:
        one ``{"worker", "pid", "attempt", "at", "detail"}`` per
        ``expire`` event after its last ``submit`` or ``retry`` event.
        ``pid`` is the worker's registry entry; ``attempt`` counts the
        leases, less releases, since the revival."""
        with self._lock:
            return self._deaths(self._conn, key)

    @staticmethod
    def _deaths(conn: sqlite3.Connection, key: str) -> list[dict]:
        rows = conn.execute(
            "SELECT e.event, e.worker, w.pid, e.at, e.detail FROM events e"
            " LEFT JOIN workers w ON w.id = e.worker"
            " WHERE e.key = ? AND e.event IN ('lease', 'release', 'expire')"
            f" AND {_SINCE_REVIVAL} ORDER BY e.seq",
            (key,),
        ).fetchall()
        attempt, out = 0, []
        for r in rows:
            attempt += {"lease": 1, "release": -1}.get(r["event"], 0)
            if r["event"] == "expire":
                out.append({"worker": r["worker"], "pid": r["pid"], "attempt": attempt,
                            "at": r["at"], "detail": r["detail"]})
        return out

    def event_counts(self) -> dict:
        """Total recorded events per transition type — the fleet-wide
        totals ``service status --json`` reports under ``events``
        (unlike :meth:`stats`, these are derived from the shared
        database, not this process's memory)."""
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
