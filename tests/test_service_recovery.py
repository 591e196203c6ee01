"""Self-healing tier: DLQ, store integrity, merge recovery, fsck, chaos."""

import json
import time

from repro.harness.cache import ResultCache
from repro.harness.chaos import ChaosSpec
from repro.harness.experiment import ExperimentSpec
from repro.service import (
    JobQueue,
    NotifyChannel,
    ServiceClient,
    SharedResultStore,
    Worker,
    fsck,
)


def spec(**kw):
    kw.setdefault("platform", "intel-9700kf")
    kw.setdefault("workload", "nbody")
    kw.setdefault("reps", 3)
    kw.setdefault("seed", 42)
    return ExperimentSpec(**kw)


def submit(queue, key, **kw):
    kw.setdefault("spec", {"k": key})
    kw.setdefault("noise", None)
    kw.setdefault("label", key)
    return queue.submit(key, **kw)


def flip_byte(path):
    raw = bytearray(path.read_bytes())
    mid = len(raw) // 2
    raw[mid] ^= 0x20
    path.write_bytes(bytes(raw))


# ----------------------------------------------------------------------
class TestDeadLetterQueue:
    def test_two_distinct_worker_deaths_quarantine(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        assert q.report_worker_death("w1", pid=101) == ["a"]
        job = q.job("a")
        assert job.status == "queued"  # one death: benefit of the doubt
        assert len({d["worker"] for d in q.deaths("a")}) == 1
        q.lease("w2")
        assert q.report_worker_death("w2", pid=102) == ["a"]
        job = q.job("a")
        assert job.status == "quarantined"
        assert len({d["worker"] for d in q.deaths("a")}) == 2
        assert set(job.failure) == {"reason", "record", "at"}
        assert job.failure["reason"] == "poison"
        assert job.failure["record"]["error"] == "PoisonJob"
        assert [d["pid"] for d in q.deaths("a")] == [101, 102]
        assert q.event_counts()["expire"] == 2
        assert q.event_counts()["quarantine"] == 1
        assert q.drained()  # quarantined is terminal: waiters unblock

    def test_same_worker_dying_twice_is_not_poison(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=3)
        for _ in range(2):
            q.lease("w1")
            q.report_worker_death("w1")
        job = q.job("a")
        # One distinct worker: unlucky, not poisonous.
        assert job.status == "queued"
        deaths = q.deaths("a")
        assert len(deaths) == 2 and len({d["worker"] for d in deaths}) == 1
        # Third death hits the attempt cap: terminal failure, not DLQ.
        q.lease("w1")
        q.report_worker_death("w1")
        job = q.job("a")
        assert job.status == "failed"
        assert job.failure["reason"] == "attempts-exhausted"
        assert job.failure["record"]["error"] == "LeaseExhausted"
        assert q.dlq_list() == []

    def test_lease_expiry_counts_as_death(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1", lease_s=0.01)
        time.sleep(0.05)
        q.lease("w2", lease_s=0.01)  # sweeps the expired lease first
        time.sleep(0.05)
        q.lease("w3", lease_s=60.0)
        job = q.job("a")
        assert job.status == "quarantined"
        workers = {d["worker"] for d in q.deaths("a")}
        assert workers == {"w1", "w2"}
        assert "expired" in q.deaths("a")[0]["detail"]

    def test_dlq_retry_revives_with_fresh_budget(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        for worker in ("w1", "w2"):
            q.lease(worker)
            q.report_worker_death(worker)
        assert q.job("a").status == "quarantined"
        assert q.dlq_retry("a") is True
        job = q.job("a")
        assert job.status == "queued"
        assert job.attempts == 0
        assert q.deaths("a") == [] and job.failure is None and job.error is None
        assert [e["event"] for e in q.events("a")][-1] == "retry"

    def test_dlq_retry_rejects_non_dead_letter_jobs(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        assert q.dlq_retry("a") is False  # queued, not dead-lettered
        assert q.dlq_retry("nope") is False

    def test_dlq_purge_single_and_all(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        for key in ("a", "b"):
            submit(q, key)
            for worker in (f"{key}-w1", f"{key}-w2"):
                (job,) = q.lease(worker)
                assert job.key == key
                q.report_worker_death(worker)
        assert {j.key for j in q.dlq_list()} == {"a", "b"}
        assert q.dlq_purge("a") == 1
        assert q.dlq_purge() == 1
        assert q.dlq_list() == []

    def test_dlq_purge_drops_the_timeline(self, tmp_path):
        # Events never outlive their rows, as under prune().
        q = JobQueue(tmp_path / "q.sqlite")
        for key in ("a", "b"):
            submit(q, key)
        (job,) = q.lease("w1")
        assert job.key == "a"
        q.report_worker_death("w1")
        # One death demotes "a" below "b", which finishes first.
        (job,) = q.lease("w3")
        assert job.key == "b"
        assert q.complete("b", "w3") is True
        (job,) = q.lease("w2")
        assert job.key == "a"
        q.report_worker_death("w2")
        assert q.job("a").status == "quarantined"
        assert len(q.events("a")) == 6
        assert q.dlq_purge("a") == 1
        assert q.events("a") == []
        assert [e["event"] for e in q.events("b")] == ["submit", "lease", "complete"]

    def test_release_refunds_the_attempt(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        (job,) = q.lease("w1")
        assert job.attempts == 1
        assert q.release("a", "w1") is True
        job = q.job("a")
        assert job.status == "queued" and job.attempts == 0
        assert q.deaths("a") == []  # a clean hand-back is not a death
        assert q.release("a", "w1") is False  # no longer held

    def test_prune_preserves_quarantined_forensics(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        for worker in ("w1", "w2"):
            q.lease(worker)
            q.report_worker_death(worker)
        assert q.prune(older_than_s=0.0) == 0
        assert q.job("a").status == "quarantined"

    def test_quarantined_chunk_fails_its_parent(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        q.submit_sharded(
            "p", spec={"k": "p"}, noise=None, label="p", chunks=[(0, 2), (2, 4)]
        )
        (job,) = q.lease("w1")
        assert job.key == "p:0-2"
        q.report_worker_death("w1")
        # One death demotes the chunk below its sibling, which finishes first.
        (job,) = q.lease("w3")
        assert job.key == "p:2-4"
        assert q.complete_chunk("p:2-4", "w3") == (False, "p")
        (job,) = q.lease("w2")
        assert job.key == "p:0-2"
        q.report_worker_death("w2")
        chunk = q.job("p:0-2")
        assert chunk.status == "quarantined"
        assert q.job("p").status == "failed"
        assert "p:0-2" in q.job("p").error


# ----------------------------------------------------------------------
class TestStoreIntegrity:
    def test_bit_flip_detected_quarantined_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = cache.get_or_run(spec())
        (entry,) = (tmp_path / "c").glob("*.json")
        assert json.loads(entry.read_text())["sha256"]
        flip_byte(entry)
        rs = cache.get_or_run(spec())
        assert cache.stats()["integrity_quarantined"] == 1
        assert [t.hex() for t in rs.times] == [t.hex() for t in first.times]
        # Forensics preserved out of the primary keyspace.
        assert list((tmp_path / "c").glob("*.corrupt"))
        # The re-written entry is clean: next read is a plain hit.
        cache.get_or_run(spec())
        assert cache.stats()["hits"] == 1

    def test_legacy_unsealed_entry_is_served(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = cache.get_or_run(spec())
        (entry,) = (tmp_path / "c").glob("*.json")
        data = json.loads(entry.read_text())
        del data["sha256"]
        entry.write_text(json.dumps(data))
        rs = cache.get_or_run(spec())
        assert cache.stats()["hits"] == 1
        assert [t.hex() for t in rs.times] == [t.hex() for t in first.times]

    def test_corrupt_chunk_entry_reads_as_missing(self, tmp_path):
        store = SharedResultStore(tmp_path / "store")
        from repro.harness.chunkrunner import run_chunk

        results = run_chunk(spec(reps=4), None, range(0, 2), need_runs=False)
        store.store_chunk("cafef00d", 0, 2, results)
        assert store.load_chunk("cafef00d", 0, 2) is not None
        chunk = store.chunk_path("cafef00d", 0, 2)
        flip_byte(chunk)
        assert store.load_chunk("cafef00d", 0, 2) is None
        assert store.stats()["integrity_quarantined"] == 1
        assert chunk.with_suffix(chunk.suffix + ".corrupt").exists()


# ----------------------------------------------------------------------
class TestMergeSelfHealing:
    def test_lost_chunk_requeued_and_merge_retried(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store, poll_s=0.01)
        base = spec(reps=6, seed=11)
        key = client.submit(base, shard=2)
        assert queue.job(key).status == "sharded"

        worker = Worker(queue, store, worker_id="healer", poll_s=0.01)
        assert worker.run(drain=False, max_jobs=2) == 2
        # One finished slice is corrupted before the last chunk merges.
        done = [c for c in queue.children(key) if c.status == "done"]
        victim = done[0]
        flip_byte(store.chunk_path(key, victim.chunk_start, victim.chunk_stop))

        worker.run(drain=True)
        assert worker.stats()["merge_retries"] >= 1
        assert queue.job(key).status == "done"
        assert queue.counts()["failed"] == 0
        assert any(
            e["event"] == "retry" and "merge re-queued" in e["detail"]
            for e in queue.events(key)
        )

        # Bit-identical to an undisturbed in-process run.
        rs = client.run_cell(base)
        golden = ResultCache(tmp_path / "golden").get_or_run(base)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]


# ----------------------------------------------------------------------
class TestFsck:
    def parts(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        return queue, store, ServiceClient(queue, store, poll_s=0.01)

    def test_clean_state_reports_clean(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        client.submit(spec())
        Worker(queue, store, poll_s=0.01).run(drain=True)
        report = fsck(queue, store)
        assert report.clean
        assert report.summary() == "fsck: queue and store are consistent"

    def test_done_without_entry_detected_and_requeued(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec())
        Worker(queue, store, poll_s=0.01).run(drain=True)
        store.entry_path(key).unlink()
        report = fsck(queue, store)
        assert report.done_without_entry == [key] and not report.repaired
        assert queue.job(key).status == "done"  # detect-only did not touch
        report = fsck(queue, store, repair=True)
        assert report.repaired and report.repairs
        assert queue.job(key).status == "queued"
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert fsck(queue, store).clean
        assert store.load_for(spec()) is not None

    def test_corrupt_entry_detected_quarantined_requeued(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec())
        Worker(queue, store, poll_s=0.01).run(drain=True)
        flip_byte(store.entry_path(key))
        report = fsck(queue, store)
        assert report.corrupt_entries == [key]
        report = fsck(queue, store, repair=True)
        assert report.corrupt_entries == [key] and report.repairs
        assert not store.entry_path(key).exists()  # moved to .corrupt
        assert queue.job(key).status == "queued"
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert fsck(queue, store).clean

    def test_stale_entry_detected_evicted_requeued(self, tmp_path):
        """A done job whose entry carries an older ``key_version`` is the
        miss the next lookup would evict: fsck reports it and, under
        repair, evicts it by the same rule and re-queues the cell."""
        import hashlib

        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec())
        Worker(queue, store, poll_s=0.01).run(drain=True)
        first = store.load_for(spec())
        path = store.entry_path(key)
        data = json.loads(path.read_text())
        data.pop("sha256")
        data["key_version"] = 1
        data["sha256"] = hashlib.sha256(json.dumps(data).encode()).hexdigest()
        path.write_text(json.dumps(data))
        report = fsck(queue, store)
        assert report.corrupt_entries == [key] and not report.repaired
        assert path.exists() and queue.job(key).status == "done"
        assert "1 corrupt or stale store entries" in report.summary()
        report = fsck(queue, store, repair=True)
        assert report.corrupt_entries == [key] and report.repairs
        assert not path.exists() and store.stats()["stale"] == 1
        assert queue.job(key).status == "queued"
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert fsck(queue, store).clean
        rs = store.load_for(spec())
        assert [t.hex() for t in rs.times] == [t.hex() for t in first.times]

    def test_dead_worker_lease_released_through_death_path(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec())
        queue.register_worker("w1", pid=4242)
        queue.lease("w1", lease_s=3600.0)
        # Stamp the heartbeat into the past: the worker is derived lost.
        with queue._lock:
            queue._conn.execute(
                "UPDATE workers SET heartbeat_at = heartbeat_at - 600 WHERE id = 'w1'"
            )
        report = fsck(queue, store)
        assert report.dead_worker_leases == [key]
        report = fsck(queue, store, repair=True)
        assert report.repairs
        job = queue.job(key)
        assert job.status == "queued"
        (death,) = queue.deaths(key)  # released via the death-recording path
        assert death["worker"] == "w1" and death["pid"] == 4242

    def stranded(self, tmp_path, s, **submit_kw):
        """A sharded cell whose chunks were all published and completed
        but never settled (the last completer died before merging)."""
        from repro.harness.chunkrunner import run_chunk

        queue, store, client = self.parts(tmp_path)
        key = client.submit(s, shard=3, **submit_kw)
        rspec, stack, _ = store.resolve_cell(s, None)
        for chunk in queue.lease("w1", limit=len(queue.children(key))):
            results = run_chunk(rspec, stack, range(chunk.chunk_start, chunk.chunk_stop))
            store.store_chunk(key, chunk.chunk_start, chunk.chunk_stop, results)
            queue.complete_chunk(chunk.key, "w1")
        assert queue.drained() and queue.job(key).status == "sharded"
        return queue, store, client, key

    def golden_bytes(self, tmp_path, s):
        cache = ResultCache(tmp_path / "golden")
        cache.get_or_run(s)
        return cache.entry_path(cache.resolve_cell(s, None)[2]).read_bytes()

    def test_stranded_parent_reported_and_merged_on_repair(self, tmp_path):
        s = spec(reps=6, seed=23)
        queue, store, client, key = self.stranded(tmp_path, s)
        report = fsck(queue, store)
        assert report.unsettled_parents == [key] and not report.clean
        assert "1 unsettled sharded parents" in report.summary()
        assert queue.job(key).status == "sharded"  # detect-only did not touch
        report = fsck(queue, store, repair=True)
        assert report.repairs == [f"merged sharded parent {key}"]
        assert queue.job(key).status == "done"
        assert store.entry_path(key).read_bytes() == self.golden_bytes(tmp_path, s)
        assert fsck(queue, store).clean  # merged: no chunk file is left behind

    def test_lost_chunk_of_unsettled_parent_requeued_on_repair(self, tmp_path):
        s = spec(reps=6, seed=23)
        queue, store, client, key = self.stranded(tmp_path, s)
        store.chunk_path(key, 3, 6).unlink()
        report = fsck(queue, store, repair=True)
        assert report.unsettled_parents == [key]
        assert report.repairs == [f"re-queued lost chunk(s) of sharded parent {key}"]
        assert queue.job(f"{key}:3-6").status == "queued"
        worker = Worker(queue, store, poll_s=0.01)
        worker.run(drain=True)
        assert worker.stats()["merges"] == 1
        assert queue.job(key).status == "done"
        assert store.entry_path(key).read_bytes() == self.golden_bytes(tmp_path, s)
        assert fsck(queue, store).clean

    def test_unsettled_parent_failed_when_no_chunk_can_requeue(self, tmp_path):
        queue, store, client, key = self.stranded(
            tmp_path, spec(reps=6, seed=23), max_attempts=1
        )
        store.chunk_path(key, 0, 3).unlink()
        report = fsck(queue, store, repair=True)
        assert report.unsettled_parents == [key]
        assert report.repairs[0].startswith(f"failed sharded parent {key}")
        assert queue.job(key).status == "failed"
        assert fsck(queue, store).orphan_chunks == [f"{key}.chunk-3-6.json"]

    def test_revived_sharded_cell_drops_its_chunk_rows(self, tmp_path):
        """A done cell that once ran sharded and lost its result is
        revived whole, like a ``dlq retry``: its old chunk rows go."""
        s = spec(reps=6, seed=29)
        queue, store, client = self.parts(tmp_path)
        key = client.submit(s, shard=3)
        Worker(queue, store, poll_s=0.01).run(drain=True)
        first = store.load_for(s)
        store.entry_path(key).unlink()
        report = fsck(queue, store, repair=True)
        assert report.done_without_entry == [key]
        assert queue.job(key).status == "queued"
        assert queue.children(key) == []
        assert not [e for e in queue.events() if e["key"].startswith(f"{key}:")]
        Worker(queue, store, poll_s=0.01).run(drain=True)
        assert queue.counts()["done"] == 1
        assert fsck(queue, store).clean
        rs = store.load_for(s)
        assert [t.hex() for t in rs.times] == [t.hex() for t in first.times]

    def test_orphan_chunk_files_deleted_on_repair(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        from repro.harness.chunkrunner import run_chunk

        results = run_chunk(spec(reps=2), None, range(0, 2), need_runs=False)
        store.store_chunk("deadbeef", 0, 2, results)
        report = fsck(queue, store)
        assert report.orphan_chunks == ["deadbeef.chunk-0-2.json"]
        fsck(queue, store, repair=True)
        assert not store.chunk_path("deadbeef", 0, 2).exists()
        assert fsck(queue, store).clean


# ----------------------------------------------------------------------
class TestServiceChaosProfiles:
    def test_service_profiles_never_fire_in_rep_path(self):
        for profile in ("kill-worker", "corrupt-store", "torn-fifo", "busy-storm"):
            chaos = ChaosSpec(profile=profile, seed=1, rate=1.0, persist=True)
            chaos.rep_fault(42, 0, 0)  # must be a no-op, not a ChaosError

    def test_kill_worker_noop_outside_service_workers(self):
        chaos = ChaosSpec(profile="kill-worker", seed=1, rate=1.0, persist=True)
        chaos.maybe_kill_worker("anykey", 1)  # would os._exit if armed

    def test_busy_storm_is_bounded_by_retry_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "busy-storm:3:1.0")
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        (job,) = q.lease("w1")
        assert job.key == "a"
        assert q.complete("a", "w1") is True
        # Every write weathered a storm, none escaped the retry budget.
        assert q.stats()["busy_retries"] > 0
        assert q.job("a").status == "done"

    def test_torn_fifo_drops_wakeups_not_correctness(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "torn-fifo:5:1.0")
        channel = NotifyChannel(tmp_path / "chan")
        with channel.subscribe() as sub:
            assert channel.notify() == 0  # dropped by chaos
            assert sub.wait(0.01) is False
        # The machinery still works end to end: waiters poll through.
        queue, store = JobQueue(tmp_path / "q.sqlite"), SharedResultStore(tmp_path / "s")
        client = ServiceClient(queue, store, poll_s=0.01)
        client.submit(spec(reps=2))
        Worker(queue, store, poll_s=0.01).run(drain=True)
        client.wait(timeout=30.0)
        assert queue.counts()["done"] == 1

    def test_corrupt_store_chaos_heals_bit_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt-store:7:1.0")
        cache = ResultCache(tmp_path / "c")
        cache.get_or_run(spec())  # first write is bit-flipped by chaos
        rs = cache.get_or_run(spec())  # detected, quarantined, re-run
        assert cache.stats()["integrity_quarantined"] == 1
        monkeypatch.delenv("REPRO_CHAOS")
        golden = ResultCache(tmp_path / "golden").get_or_run(spec())
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
        # The re-written entry stands (chaos corrupts first write only).
        cache.get_or_run(spec())
        assert cache.stats()["hits"] == 1
