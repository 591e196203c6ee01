"""Concurrently-safe shared result store.

The :class:`~repro.harness.cache.ResultCache` is already safe for
*threads* (distinct keys write distinct files; writes are atomic).
Sharing one directory between *processes* — service workers, in-process
campaigns, multiple clients — adds one failure mode: two processes
missing on the same key would both simulate it.  Harmless for
correctness (the runs are deterministic, so the ``os.replace`` race
loser overwrites the winner with identical bytes) but wasteful, and
the whole point of a shared store is that duplicate submissions cost
nothing.

:class:`SharedResultStore` therefore serialises the miss-run-store
section under a per-key ``flock`` file lock (``.locks/<key>.lock``
next to the entries): the lock loser re-checks the store on entry and
is served the winner's result with zero re-simulation.  Reads stay
lock-free — entries are immutable once written (atomic rename), so a
reader either sees a complete envelope or nothing.

Counters on top of the cache's: ``lock_waits`` (a miss found the key
locked and blocked) and ``shared_hits`` (the re-check under the lock
was served another process's result).

The store is also the *assembly point for sharded cells*: workers
publish each finished rep slice as an immutable **chunk entry**
(``<key>.chunk-<start>-<stop>.json``, atomic rename like everything
else), and :meth:`SharedResultStore.merge_chunks` assembles the slices
in rep-index order into the ordinary envelope under the parent key,
serialised by the same per-key flock.  The merge goes through the
cache's own ``store_entry``, so a sharded cell's envelope is
byte-identical to an in-process run's: JSON float round-trip is exact,
rep *i* was seeded from its spawn key regardless of which worker ran
it, and partial results (skip-policy failures inside a chunk)
quarantine exactly as they would in-process.  Chunk files are deleted
after a successful merge (``chunk_merges`` counts them).

:func:`settle_sharded` is the one rule that finishes a sharded cell
once every chunk is ``done``: merge and finalize the parent; if the
merge fails, re-queue the slices whose entries are lost; if none can
be re-queued, fail the parent.  Its three callers — the worker that
completed the last slice, a client collecting the cell, and ``fsck
--repair`` — may race freely: the flock lets one merge and serves the
others, and a slice one settler re-queued counts as re-queued for all.

Chunk entries are the cache's own sealed envelopes, read under its one
fault rule (see :meth:`~repro.harness.cache.ResultCache._read`): a
torn, bit-flipped or stale slice is counted, moved out of the keyspace
and reads as missing, so the merge aborts cleanly and settling
re-queues the slice instead of poisoning the merged cell.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentSpec, ResultSet
from repro.harness.faults import FailureRecord
from repro.service.queue import JobQueue, _chunk_key, revive_noise

try:  # POSIX only; the store degrades to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = ["SharedResultStore", "settle_sharded"]

_log = logging.getLogger(__name__)

#: lock files this process has open.  A child forked under a lock (a
#: pool worker, which outlives a SIGKILLed holder) closes its copies.
_lock_fds: set[int] = set()


def _close_inherited_locks() -> None:
    for fd in _lock_fds:
        os.close(fd)
    _lock_fds.clear()


if fcntl is not None:
    os.register_at_fork(after_in_child=_close_inherited_locks)


class SharedResultStore(ResultCache):
    """A :class:`ResultCache` whose miss path is multi-process safe.

    Drop-in: same constructor, same ``get_or_run`` contract, same
    envelopes on disk — an in-process campaign and a fleet of service
    workers can point at one directory and serve each other's results.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._locks_dir = self.root / ".locks"

    def stats(self) -> dict:
        out = super().stats()
        counts = self._counters.as_dict()
        out["lock_waits"] = int(counts.get("lock_waits", 0))
        out["shared_hits"] = int(counts.get("shared_hits", 0))
        out["chunk_merges"] = int(counts.get("chunk_merges", 0))
        return out

    @contextmanager
    def _key_lock(self, key: str):
        """Exclusive advisory lock for ``key``'s miss section.

        Yields ``True`` when the lock was contended (another process
        held it when we arrived).  Lock files are tiny and reusable;
        they are never deleted while the store lives, so the
        inode-based flock cannot race a concurrent unlink.
        """
        if fcntl is None or not self.enabled:  # pragma: no cover - non-POSIX
            yield False
            return
        self._locks_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._locks_dir / f"{key}.lock", os.O_CREAT | os.O_RDWR, 0o644)
        _lock_fds.add(fd)
        try:
            contended = False
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                contended = True
                self._count("lock_waits")
                fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                yield contended
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            _lock_fds.discard(fd)
            os.close(fd)

    def _run_and_store(self, spec, stack, key, executor, on_run, policy):
        with self._key_lock(key):
            # Unconditional double-check: even an uncontended acquire can
            # follow another process's complete run-release (it published
            # between our miss and our lock), so trusting the pre-lock
            # miss would re-simulate.  Reading a missing entry is cheap.
            rs = self.load_entry(key, spec)
            if rs is not None:
                self._count("shared_hits")
                return rs
            return super()._run_and_store(spec, stack, key, executor, on_run, policy)

    def load_for(self, spec, noise=None) -> Optional[ResultSet]:
        """Lock-free read of a cell's entry (``None`` when absent)."""
        spec, _stack, key = self.resolve_cell(spec, noise)
        return self.load_entry(key, spec)

    # ------------------------------------------------------------------
    # sharded cells: chunk entries + merge
    # ------------------------------------------------------------------
    def chunk_path(self, key: str, start: int, stop: int):
        """Where the ``[start, stop)`` rep slice of ``key`` lands."""
        return self.root / f"{key}.chunk-{start}-{stop}.json"

    def store_chunk(self, key: str, start: int, stop: int, results: Sequence) -> None:
        """Publish one finished rep slice of a sharded cell (atomic).

        ``results`` are :class:`~repro.harness.chunkrunner.RepResult`\\ s
        for exactly the indices ``range(start, stop)``, in order.  The
        slice envelope round-trips floats exactly, so the merged cell is
        bit-identical to one computed in a single process.  Idempotent:
        a re-leased chunk (dead worker, lost lease) rewrites identical
        bytes.
        """
        indices = [r.index for r in results]
        if indices != list(range(start, stop)):
            raise ValueError(
                f"chunk [{start}, {stop}) of {key} got rep indices {indices}"
            )
        self._write(
            self.chunk_path(key, start, stop),
            {
                "parent": key,
                "start": start,
                "stop": stop,
                "times": [r.exec_time for r in results],
                "anomalies": [r.anomaly for r in results],
                "failures": [
                    r.error.to_dict() for r in results if r.error is not None
                ],
            },
        )

    def load_chunk(self, key: str, start: int, stop: int) -> Optional[dict]:
        """One slice envelope, or ``None`` when absent or faulted (a
        faulted slice — including one of the wrong length — is evicted
        and counted like any other entry)."""

        def decode(data: dict) -> dict:
            if len(data["times"]) != stop - start:
                raise ValueError(f"chunk [{start}, {stop}) holds {len(data['times'])} reps")
            return data

        return self._read(
            self.chunk_path(key, start, stop), f"{key}[{start}:{stop}]", decode
        )

    def merge_chunks(
        self,
        spec,
        stack,
        key: str,
        chunks: Sequence[tuple[int, int]],
    ) -> ResultSet:
        """Assemble a sharded cell's chunk entries into its envelope.

        ``spec`` must be rep-resolved (the job rows carry it that way)
        and ``chunks`` must partition ``range(spec.reps)``.  Runs under
        the per-key flock with a double-check, so the last-finishing
        worker and a collecting client can race freely: one merges, the
        other is served.  The merged :class:`ResultSet` goes through
        ``store_entry`` — same envelope bytes as an in-process run,
        same ``.partial.json`` quarantine when a skip policy left
        failed reps.  Chunk files are removed after a successful merge.
        """
        spans = sorted((int(a), int(b)) for a, b in chunks)
        expected = []
        cursor = 0
        for start, stop in spans:
            expected.append((cursor, start))
            cursor = stop
        if any(a != b for a, b in expected) or cursor != spec.reps:
            raise ValueError(
                f"chunks {spans} do not partition range({spec.reps}) for {key}"
            )
        with self._key_lock(key):
            rs = self.load_entry(key, spec)
            if rs is not None:
                self._count("shared_hits")
                return rs
            times = np.empty(spec.reps, dtype=np.float64)
            anomalies: list = [None] * spec.reps
            failures: list[FailureRecord] = []
            for start, stop in spans:
                data = self.load_chunk(key, start, stop)
                if data is None:
                    raise RuntimeError(
                        f"missing or torn chunk entry [{start}, {stop}) for {key}; "
                        "cannot merge"
                    )
                times[start:stop] = data["times"]
                anomalies[start:stop] = data["anomalies"]
                failures.extend(
                    FailureRecord.from_dict(f) for f in data.get("failures", [])
                )
            failures.sort(key=lambda f: f.index)
            rs = ResultSet(
                spec=spec,
                times=times,
                anomalies=anomalies,
                injected=stack is not None and bool(stack),
                failures=failures,
            )
            self.store_entry(key, spec, stack, rs)
            self._count("chunk_merges")
            for start, stop in spans:
                self.chunk_path(key, start, stop).unlink(missing_ok=True)
            return rs


def settle_sharded(queue: JobQueue, store: SharedResultStore, key: str) -> Optional[str]:
    """Finish the sharded cell ``key`` once every chunk of it is done.

    Reads the cell's spec and noise from its job row and does nothing
    (returns ``None``) unless the row is ``sharded`` and every child is
    ``done``.  Then it merges the chunk entries and finalizes the parent
    (``"merged"``); if the merge raises, it re-queues the children whose
    chunk entries are lost (``"requeued"``); if none can be re-queued,
    it fails the parent (``"failed"``).  The merge comes first, so the
    common path reads each chunk once and adds no write transaction.
    """
    job = queue.job(key)
    if job is None or job.status != "sharded":
        return None
    children = queue.children(key)
    if not children or any(c.status != "done" for c in children):
        return None
    spans = [(c.chunk_start, c.chunk_stop) for c in children]
    try:
        store.merge_chunks(
            ExperimentSpec.from_dict(job.spec), revive_noise(job.noise), key, spans
        )
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        _log.warning("merge of sharded cell %s failed: %s", key, error)
        lost = [
            _chunk_key(key, start, stop)
            for start, stop in spans
            if store.load_chunk(key, start, stop) is None
        ]
        if lost and queue.requeue_children(key, lost):
            _log.warning("re-queued %d lost chunk(s) of %s", len(lost), key)
            return "requeued"
        queue.fail_parent(key, f"merge failed: {error}")
        return "failed"
    queue.finalize_parent(key)
    return "merged"
