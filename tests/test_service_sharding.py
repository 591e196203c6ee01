"""Intra-cell sharding and event-driven wakeup tests.

The hard guarantees under test:

* sharding never changes bytes — a cell split into chunk sub-jobs
  across any chunk size, worker count, or interleaving (including a
  SIGKILLed worker mid-chunk) merges into an envelope byte-identical
  to the one an in-process run writes;
* exactly one merger — the queue's in-transaction last-child check and
  the store's per-key flock make the worker/client merge race safe;
* a terminal chunk failure fails the whole cell, never leaves orphan
  work behind;
* the notify channel wakes idle workers and waiting clients without
  waiting out the poll interval, and degrades to polling when disabled;
* queue writes ride out SQLITE_BUSY with bounded retries, and finished
  rows are pruned after their retention window.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.chunkrunner import run_chunk, shard_ranges
from repro.harness.experiment import ExperimentSpec
from repro.harness.sweep import sweep
from repro.service import scheduler
from repro.service import (
    Job,
    JobQueue,
    NotifyChannel,
    ServiceClient,
    SharedResultStore,
    Worker,
)
from repro.service.store import settle_sharded

SRC = str(Path(__file__).resolve().parent.parent / "src")


def spec(**kw):
    kw.setdefault("platform", "intel-9700kf")
    kw.setdefault("workload", "nbody")
    kw.setdefault("reps", 6)
    kw.setdefault("seed", 42)
    return ExperimentSpec(**kw)


def submit_sharded(queue, key, chunks, **kw):
    kw.setdefault("spec", {"k": key})
    kw.setdefault("noise", None)
    kw.setdefault("label", key)
    return queue.submit_sharded(key, chunks=chunks, **kw)


# ----------------------------------------------------------------------
class TestShardRanges:
    def test_partitions_in_order(self):
        for reps in (1, 2, 5, 7, 12, 16):
            for shard in (1, 2, 3, 5, 16, 100):
                spans = shard_ranges(reps, shard)
                flat = [i for r in spans for i in r]
                assert flat == list(range(reps)), (reps, shard)
                assert all(len(r) <= shard for r in spans)

    def test_rejects_empty_cell(self):
        with pytest.raises(ValueError):
            shard_ranges(0, 4)


# ----------------------------------------------------------------------
class TestShardedQueue:
    def test_parent_and_children_rows(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        assert submit_sharded(q, "a", [(0, 3), (3, 6)]) is True
        assert q.counts() == {
            "queued": 2, "leased": 0, "sharded": 1, "done": 0, "failed": 0,
        "quarantined": 0,
        }
        kids = q.children("a")
        assert [(c.chunk_start, c.chunk_stop) for c in kids] == [(0, 3), (3, 6)]
        assert all(c.parent == "a" for c in kids)
        assert not q.drained(["a"])  # chunk work counts as the parent's

    def test_resubmit_is_deduplicated(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)])
        assert submit_sharded(q, "a", [(0, 2), (2, 6)]) is False
        assert len(q.children("a")) == 2  # original carving kept

    def test_degenerate_spans_rejected(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        with pytest.raises(ValueError):
            submit_sharded(q, "a", [])
        with pytest.raises(ValueError):
            submit_sharded(q, "a", [(3, 3)])

    def test_last_chunk_completion_is_flagged_exactly_once(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 2), (2, 4), (4, 6)])
        lasts = []
        for job in q.lease("w1", limit=3):
            last, parent = q.complete_chunk(job.key, "w1")
            assert parent == "a"
            lasts.append(last)
        assert lasts == [False, False, True]
        assert q.finalize_parent("a") is True
        assert q.job("a").status == "done"
        assert q.drained()

    def test_terminal_chunk_failure_fails_parent_and_siblings(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 2), (2, 4), (4, 6)], max_attempts=1)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom", retryable=False)
        assert q.counts()["sharded"] == 0
        assert q.counts()["queued"] == 0
        assert q.job("a").status == "failed"
        assert "chunk" in q.job("a").error and "boom" in q.job("a").error
        assert q.drained(["a"])

    @staticmethod
    def _last_events(q, keys):
        return {k: (q.job(k).status, q.events(k)[-1]["event"]) for k in keys}

    def test_chunk_failure_records_a_fail_event_per_sibling(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "p", [(0, 2), (2, 4), (4, 6)], max_attempts=1)
        (job,) = q.lease("w1")
        assert job.key == "p:0-2"
        q.fail(job.key, "w1", "boom", retryable=False)
        # The timeline agrees with the jobs table for every failed row.
        assert self._last_events(q, ["p", "p:0-2", "p:2-4", "p:4-6"]) == {
            k: ("failed", "fail") for k in ("p", "p:0-2", "p:2-4", "p:4-6")
        }

    def test_fail_parent_records_a_fail_event_per_sibling(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "p", [(0, 2), (2, 4)])
        assert q.fail_parent("p", "merge broke") is True
        assert self._last_events(q, ["p", "p:0-2", "p:2-4"]) == {
            k: ("failed", "fail") for k in ("p", "p:0-2", "p:2-4")
        }

    def test_expired_chunk_lease_past_cap_fails_parent(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)], max_attempts=1)
        q.lease("w1", lease_s=0.05)
        time.sleep(0.1)
        q.lease("w2")  # sweeps the expired lease terminally
        assert q.job("a").status == "failed"

    def test_resubmit_whole_after_failed_shard_drops_children(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)], max_attempts=1)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom", retryable=False)
        assert q.submit("a", spec={"k": "a"}, noise=None, label="a") is True
        assert q.job("a").status == "queued"
        assert q.children("a") == []

    def test_resubmit_sharded_after_failure_gets_fresh_children(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)], max_attempts=1)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom", retryable=False)
        assert submit_sharded(q, "a", [(0, 2), (2, 6)]) is True
        assert q.job("a").status == "sharded"
        kids = q.children("a")
        assert [(c.chunk_start, c.chunk_stop) for c in kids] == [(0, 2), (2, 6)]
        assert all(c.status == "queued" for c in kids)


# ----------------------------------------------------------------------
class TestSchedulerShardAffinity:
    def job(self, key, **kw):
        kw.setdefault("spec", {})
        kw.setdefault("noise", None)
        kw.setdefault("label", key)
        kw.setdefault("status", "queued")
        kw.setdefault("priority", 0)
        kw.setdefault("expected_s", 0.0)
        kw.setdefault("cached", False)
        kw.setdefault("attempts", 0)
        kw.setdefault("max_attempts", 3)
        kw.setdefault("submitted_at", 100.0)
        return Job(key=key, **kw)

    def test_in_flight_chunks_beat_fresh_cells(self):
        fresh = self.job("fresh")
        chunk = self.job("cell:0-3", parent="cell", siblings_active=1)
        idle_chunk = self.job("cold:0-3", parent="cold", siblings_active=0)
        ranked = scheduler.rank([fresh, idle_chunk, chunk], now=100.0)
        assert ranked[0].key == "cell:0-3"

    def test_lease_fills_siblings_active(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "cell", [(0, 2), (2, 4), (4, 6)])
        q.submit("other", spec={"k": "other"}, noise=None, label="other", priority=1)
        (first,) = q.lease("w1")
        # Nothing in flight yet: priority wins the first lease.
        assert first.key == "other"
        (second,) = q.lease("w1")
        assert second.parent == "cell"
        # One sibling leased now -> the next lease sticks with the cell.
        (third,) = q.lease("w2")
        assert third.parent == "cell"
        assert third.siblings_active >= 1


# ----------------------------------------------------------------------
class TestChunkMerge:
    """Property: chunk-wise execution + merge == serial run, bytewise."""

    def golden(self, tmp_path, s):
        cache = ResultCache(tmp_path / "golden")
        rs = cache.get_or_run(s)
        _, _, key = cache.resolve_cell(s, None)
        return rs, cache.entry_path(key).read_bytes()

    @pytest.mark.parametrize("reps,shard", [(5, 1), (6, 2), (7, 3), (12, 5), (9, 16)])
    def test_merge_equals_serial_bytes(self, tmp_path, reps, shard):
        s = spec(reps=reps, seed=reps * 100 + shard)
        golden_rs, golden_bytes = self.golden(tmp_path, s)
        store = SharedResultStore(tmp_path / "store")
        rspec, stack, key = store.resolve_cell(s, None)
        spans = [(r.start, r.stop) for r in shard_ranges(rspec.reps, shard)]
        # Chunks arrive in arbitrary order from arbitrary "workers".
        for start, stop in reversed(spans):
            results = run_chunk(rspec, stack, range(start, stop))
            store.store_chunk(key, start, stop, results)
        merged = store.merge_chunks(rspec, stack, key, spans)
        assert [t.hex() for t in merged.times] == [t.hex() for t in golden_rs.times]
        assert store.entry_path(key).read_bytes() == golden_bytes
        # Chunk files are gone; the envelope serves everyone from now on.
        assert not list(store.root.glob("*.chunk-*.json"))
        assert store.load_entry(key, rspec) is not None

    def test_merge_rejects_bad_partition(self, tmp_path):
        store = SharedResultStore(tmp_path / "store")
        rspec, stack, key = store.resolve_cell(spec(reps=6), None)
        with pytest.raises(ValueError, match="partition"):
            store.merge_chunks(rspec, stack, key, [(0, 3), (4, 6)])

    def test_merge_missing_chunk_raises(self, tmp_path):
        store = SharedResultStore(tmp_path / "store")
        rspec, stack, key = store.resolve_cell(spec(reps=6), None)
        results = run_chunk(rspec, stack, range(0, 3))
        store.store_chunk(key, 0, 3, results)
        with pytest.raises(RuntimeError, match="missing or torn"):
            store.merge_chunks(rspec, stack, key, [(0, 3), (3, 6)])

    def test_merge_race_loser_is_served(self, tmp_path):
        store = SharedResultStore(tmp_path / "store")
        rspec, stack, key = store.resolve_cell(spec(reps=4), None)
        for start, stop in ((0, 2), (2, 4)):
            store.store_chunk(
                key, start, stop, run_chunk(rspec, stack, range(start, stop))
            )
        first = store.merge_chunks(rspec, stack, key, [(0, 2), (2, 4)])
        # Second merger (worker vs client race) sees the envelope and
        # never needs the (now deleted) chunk files.
        second = store.merge_chunks(rspec, stack, key, [(0, 2), (2, 4)])
        assert [t.hex() for t in first.times] == [t.hex() for t in second.times]
        assert store.stats()["chunk_merges"] == 1


# ----------------------------------------------------------------------
def strand(queue, store, key):
    """Publish and complete every chunk of the sharded cell ``key`` but
    never settle it, as when the last completer dies before merging."""
    job = queue.job(key)
    rspec = ExperimentSpec.from_dict(job.spec)
    for chunk in queue.lease("w1", limit=len(queue.children(key))):
        results = run_chunk(rspec, None, range(chunk.chunk_start, chunk.chunk_stop))
        store.store_chunk(key, chunk.chunk_start, chunk.chunk_stop, results)
        queue.complete_chunk(chunk.key, "w1")
    assert queue.job(key).status == "sharded"


def flip_byte(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x20
    path.write_bytes(bytes(raw))


class TestSettle:
    def test_racing_settlers_both_see_the_requeue(self, tmp_path, monkeypatch):
        """Two settlers (say the last worker and a collecting client)
        read the same all-done children and meet the same lost slice:
        the one that finds it already re-queued must not fail the cell."""
        queue = JobQueue(tmp_path / "queue.sqlite")
        store = SharedResultStore(tmp_path / "store")
        key = ServiceClient(queue, store).submit(spec(reps=6, seed=31), shard=3)
        strand(queue, store, key)
        store.chunk_path(key, 0, 3).unlink()
        snapshot = queue.children(key)
        assert settle_sharded(queue, store, key) == "requeued"
        assert settle_sharded(queue, store, key) is None  # a chunk is open
        monkeypatch.setattr(queue, "children", lambda _key: snapshot)
        assert settle_sharded(queue, store, key) == "requeued"
        assert queue.job(key).status == "sharded"
        assert queue.job(f"{key}:0-3").status == "queued"


# ----------------------------------------------------------------------
class TestShardedEndToEnd:
    def parts(self, tmp_path, **client_kw):
        queue = JobQueue(tmp_path / "queue.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client_kw.setdefault("poll_s", 0.01)
        return queue, store, ServiceClient(queue, store, **client_kw)

    def test_sharded_cell_bit_identical_to_in_process(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        s = spec(reps=7, seed=11)
        key = client.submit(s, shard=3)
        assert queue.job(key).status == "sharded"
        assert len(queue.children(key)) == 3
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert queue.job(key).status == "done"
        rs = client.run_cell(s)
        golden_cache = ResultCache(tmp_path / "golden")
        golden = golden_cache.get_or_run(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
        _, _, gkey = golden_cache.resolve_cell(s, None)
        assert (
            store.entry_path(key).read_bytes()
            == golden_cache.entry_path(gkey).read_bytes()
        )

    def test_two_workers_share_one_cell(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        s = spec(reps=8, seed=13)
        key = client.submit(s, shard=2)  # 4 chunks
        workers = [
            Worker(queue, store, worker_id=f"w{i}", poll_s=0.01) for i in (1, 2)
        ]
        threads = [
            threading.Thread(target=w.run, kwargs={"drain": True}) for w in workers
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert queue.job(key).status == "done"
        assert sum(w.stats()["chunks_done"] for w in workers) == 4
        assert sum(w.stats()["merges"] for w in workers) == 1
        golden = ResultCache(tmp_path / "golden").get_or_run(s)
        rs = client.run_cell(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]

    def test_client_merges_when_merging_worker_died(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        s = spec(reps=6, seed=17)
        key = client.submit(s, shard=3)
        strand(queue, store, key)
        rs = client.run_cell(s)
        assert client.stats()["client_merges"] == 1
        assert queue.job(key).status == "done"
        golden = ResultCache(tmp_path / "golden").get_or_run(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]

    def test_client_requeues_torn_slice_of_stranded_cell(self, tmp_path):
        """Every chunk is done, no merge ran, and one slice is torn: the
        collecting client settles the cell by re-queuing that slice,
        waits for it, and gets the in-process bytes."""
        queue, store, client = self.parts(tmp_path)
        s = spec(reps=6, seed=17)
        key = client.submit(s, shard=3)
        strand(queue, store, key)
        flip_byte(store.chunk_path(key, 3, 6))
        with pytest.raises(TimeoutError):
            client.run_cell(s, timeout=0.2)
        assert queue.job(f"{key}:3-6").status == "queued"
        assert queue.job(f"{key}:0-3").status == "done"
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert queue.job(key).status == "done"
        rs = client.run_cell(s)
        golden_cache = ResultCache(tmp_path / "golden")
        golden = golden_cache.get_or_run(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
        _, _, gkey = golden_cache.resolve_cell(s, None)
        assert (
            store.entry_path(key).read_bytes()
            == golden_cache.entry_path(gkey).read_bytes()
        )

    def test_adaptive_cells_are_never_sharded(self, tmp_path):
        from repro.harness.adaptive import AdaptivePolicy

        queue, store, client = self.parts(tmp_path)
        s = spec(reps=40, adaptive=AdaptivePolicy(target_rel_hw=0.5))
        key = client.submit(s, shard=2)
        assert queue.job(key).status == "queued"
        assert queue.children(key) == []

    def test_store_served_cells_are_never_sharded(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        s = spec(reps=6, seed=19)
        store.get_or_run(s)  # envelope already there
        key = client.submit(s, shard=2)
        assert queue.job(key).status == "queued"  # whole, near-free job
        assert queue.job(key).cached is True
        assert queue.children(key) == []

    def test_client_threshold_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_REPS", "4")
        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec(reps=6, seed=23))
        assert queue.job(key).status == "sharded"
        assert len(queue.children(key)) == 2

    def test_sharded_sweep_renders_identically(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        base = spec(reps=5, seed=29)
        worker = Worker(queue, store, poll_s=0.01)
        t = threading.Thread(target=worker.run, kwargs={"drain": False})
        t.start()
        try:
            result = sweep(base, service=client, shard=2, model=("omp", "sycl"))
        finally:
            worker.stop()
            t.join(timeout=60)
        golden = sweep(
            base, cache=ResultCache(tmp_path / "golden"), model=("omp", "sycl")
        )
        assert result.render() == golden.render()


# ----------------------------------------------------------------------
class TestNotifyChannel:
    def test_notify_wakes_subscriber(self, tmp_path):
        channel = NotifyChannel(tmp_path / "chan")
        if not channel.enabled:
            pytest.skip("no fifo support on this platform")
        with channel.subscribe() as sub:
            assert NotifyChannel(tmp_path / "chan").notify() == 1
            assert sub.wait(5.0) is True
            assert sub.wait(0.0) is False  # drained: no stale wake

    def test_wait_times_out_quietly(self, tmp_path):
        channel = NotifyChannel(tmp_path / "chan")
        with channel.subscribe() as sub:
            t0 = time.monotonic()
            assert sub.wait(0.05) is False
            assert time.monotonic() - t0 < 2.0

    def test_notify_without_subscribers_is_a_noop(self, tmp_path):
        assert NotifyChannel(tmp_path / "chan").notify() == 0

    def test_disabled_channel_polls_a_probe(self, tmp_path):
        ticks = iter(range(100))
        channel = NotifyChannel(tmp_path / "chan", enabled=False)
        sub = channel.subscribe(probe=lambda: next(ticks))
        assert sub.wait(2.0) is True  # probe value changed
        sub.close()
        assert channel.notify() == 0

    def test_stale_fifo_is_reaped(self, tmp_path):
        channel = NotifyChannel(tmp_path / "chan")
        if not channel.enabled:
            pytest.skip("no fifo support on this platform")
        dead = tmp_path / "chan" / "99999-0.fifo"
        dead.parent.mkdir(parents=True, exist_ok=True)
        os.mkfifo(dead)
        os.utime(dead, (time.time() - 120, time.time() - 120))
        channel.notify()
        assert not dead.exists()

    def test_fresh_readerless_fifo_survives_notify(self, tmp_path):
        channel = NotifyChannel(tmp_path / "chan")
        if not channel.enabled:
            pytest.skip("no fifo support on this platform")
        young = tmp_path / "chan" / "99999-1.fifo"
        young.parent.mkdir(parents=True, exist_ok=True)
        os.mkfifo(young)  # a live subscriber mid-open looks like this
        channel.notify()
        assert young.exists()

    def test_worker_and_client_wake_without_polling(self, tmp_path):
        """With poll intervals far beyond the runtime, only event wakes
        can finish the round trip quickly."""
        queue = JobQueue(tmp_path / "queue.sqlite")
        if not queue.notify_submit.enabled:
            pytest.skip("no fifo support on this platform")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store, poll_s=30.0)
        worker = Worker(queue, store, poll_s=30.0)
        t = threading.Thread(target=worker.run, kwargs={"drain": False})
        t.start()
        try:
            time.sleep(0.2)  # worker parks on the submit channel
            t0 = time.monotonic()
            key = client.submit(spec(reps=2, seed=31))
            client.wait([key], timeout=25.0)
            elapsed = time.monotonic() - t0
        finally:
            worker.stop()
            queue.notify_submit.notify()  # unblock the idle park
            t.join(timeout=60)
        assert queue.job(key).status == "done"
        assert elapsed < 20.0  # well under one 30 s poll period
        assert worker.stats()["notify_wakes"] >= 1
        assert client.stats()["notify_wakes"] >= 1


# ----------------------------------------------------------------------
class TestBusyRetry:
    def test_write_txn_rides_out_a_lock_holder(self, tmp_path):
        path = tmp_path / "q.sqlite"
        q = JobQueue(path, busy_timeout_s=0.02, busy_retries=50)
        before = q.stats()["busy_retries"]

        def hold_then_release():
            blocker = sqlite3.connect(
                path, isolation_level=None, check_same_thread=False
            )
            blocker.execute("BEGIN IMMEDIATE")
            held.set()
            time.sleep(0.3)
            blocker.execute("COMMIT")
            blocker.close()

        held = threading.Event()
        t = threading.Thread(target=hold_then_release)
        t.start()
        try:
            held.wait(10.0)
            assert q.submit("a", spec={}, noise=None, label="a") is True
        finally:
            t.join()
        assert q.stats()["busy_retries"] > before
        assert q.counts()["queued"] == 1

    def test_retries_are_bounded(self, tmp_path):
        path = tmp_path / "q.sqlite"
        q = JobQueue(path, busy_timeout_s=0.01, busy_retries=2)
        blocker = sqlite3.connect(path, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(sqlite3.OperationalError):
                q.submit("a", spec={}, noise=None, label="a")
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()


# ----------------------------------------------------------------------
class TestPrune:
    def fill(self, q):
        q.submit("done1", spec={}, noise=None, label="d")
        (job,) = q.lease("w1")
        q.complete(job.key, "w1")
        q.submit("live", spec={}, noise=None, label="l")

    def test_prune_drops_old_finished_rows_only(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        self.fill(q)
        time.sleep(0.02)
        assert q.prune(older_than_s=3600.0) == 0  # inside the window
        assert q.prune(older_than_s=0.0) == 1
        assert q.job("done1") is None
        assert q.job("live").status == "queued"
        assert q.stats()["pruned"] >= 1

    def test_prune_takes_children_with_parent(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "cell", [(0, 3), (3, 6)])
        for job in q.lease("w1", limit=2):
            q.complete_chunk(job.key, "w1")
        q.finalize_parent("cell")
        time.sleep(0.02)
        assert q.prune(older_than_s=0.0) == 3  # parent + 2 chunks
        assert q.job("cell") is None and q.children("cell") == []

    def test_prune_spares_parents_with_active_children(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "cell", [(0, 3), (3, 6)], max_attempts=1)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom", retryable=False)
        # Parent is failed, but one sibling is still leasable?  No —
        # terminal chunk failure failed the queued sibling too, so the
        # whole family is prunable.
        time.sleep(0.02)
        assert q.prune(older_than_s=0.0) == 3

    def test_window_from_environment(self, tmp_path, monkeypatch):
        q = JobQueue(tmp_path / "q.sqlite")
        self.fill(q)
        time.sleep(0.02)
        monkeypatch.setenv("REPRO_PRUNE_S", "0")
        assert q.prune() == 1


# ----------------------------------------------------------------------
_KILLABLE_WORKER = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    sys.path.insert(0, {src!r})
    from repro.service import JobQueue, SharedResultStore, Worker
    worker = Worker(
        JobQueue(Path({queue!r})),
        SharedResultStore(Path({store!r})),
        worker_id="victim",
        lease_s=1.0,
        poll_s=0.02,
    )
    worker.run(drain=True)
    """
)


class TestKilledWorkerMidShard:
    def test_sigkill_mid_chunk_then_bit_identical_merge(self, tmp_path):
        """The acceptance scenario: shard one cell, SIGKILL a worker
        while it holds a chunk lease, drain with a second worker, and
        require the merged envelope to be byte-identical to an
        uninterrupted in-process run."""
        queue = JobQueue(tmp_path / "queue.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store, poll_s=0.01)
        s = spec(
            workload="minife", workload_params={"cg_iters": 40}, reps=12, seed=3
        )
        key = client.submit(s, shard=3)
        assert queue.job(key).status == "sharded"
        assert len(queue.children(key)) == 4

        script = _KILLABLE_WORKER.format(
            src=SRC,
            queue=str(tmp_path / "queue.sqlite"),
            store=str(tmp_path / "store"),
        )
        proc = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(j.parent == key for j in queue.jobs("leased")):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim worker never leased a chunk")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        orphaned = [j for j in queue.jobs("leased") if j.parent == key]
        assert orphaned, "chunk should still look leased right after the kill"

        Worker(queue, store, worker_id="rescuer", poll_s=0.05).run(drain=True)
        assert queue.counts()["failed"] == 0
        assert queue.job(key).status == "done"
        assert all(c.status == "done" for c in queue.children(key))
        rekeyed = {j.key: j for j in queue.jobs()}
        assert rekeyed[orphaned[0].key].attempts == 2

        rs = client.run_cell(s)
        golden_cache = ResultCache(tmp_path / "golden")
        golden = golden_cache.get_or_run(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
        _, _, gkey = golden_cache.resolve_cell(s, None)
        assert (
            store.entry_path(key).read_bytes()
            == golden_cache.entry_path(gkey).read_bytes()
        )
