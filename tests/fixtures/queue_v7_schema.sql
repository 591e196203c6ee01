-- The campaign-service queue schema as first released (PR 7): before
-- the sharding columns (parent/chunk_start/chunk_stop), before the
-- dead-letter columns (deaths/failure), and before the workers
-- registry table.  tests/test_service.py loads this into a fresh
-- SQLite file to prove that opening a queue file of an older schema
-- fails at once with a ValueError naming the file and its missing
-- columns, and leaves the file's tables as they were.
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
    error         TEXT
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

-- A queue frozen mid-campaign: one queued cell, one finished one, and
-- a sweep spanning both.
INSERT INTO jobs (key, spec, noise, label, status, submitted_at)
VALUES ('oldqueued', '{"k": "oldqueued"}', NULL, 'old queued cell',
        'queued', 1700000000.0);
INSERT INTO jobs (key, spec, noise, label, status, attempts,
                  submitted_at, finished_at)
VALUES ('olddone', '{"k": "olddone"}', NULL, 'old done cell',
        'done', 1, 1700000000.0, 1700000100.0);
INSERT INTO sweeps (id, title, definition, submitted_at)
VALUES ('sweep-1', 'old sweep', '{}', 1700000000.0);
INSERT INTO sweep_jobs (sweep_id, position, key) VALUES ('sweep-1', 0, 'oldqueued');
INSERT INTO sweep_jobs (sweep_id, position, key) VALUES ('sweep-1', 1, 'olddone');
