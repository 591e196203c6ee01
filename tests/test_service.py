"""Campaign service tests: queue, scheduler, shared store, workers.

The hard guarantees under test:

* queue durability — leases expire when their holder dies (including a
  real SIGKILLed worker process) and the job is re-leased and re-run
  from its original seeds, bit-identically;
* shared-store concurrency — two processes hammering one directory
  never re-simulate a key the other already ran;
* transport neutrality — tables collected through the service render
  byte-identically to in-process ones.
"""

import json
import math
import multiprocessing
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
from repro.harness.experiment import ExperimentSpec
from repro.harness.sweep import sweep
from repro.noise.base import NoiseStack
from repro.service import queue as queue_module
from repro.service import scheduler
from repro.service import worker as worker_module
from repro.service import (
    Job,
    JobQueue,
    ServiceClient,
    SharedResultStore,
    Worker,
)
from repro.service.fsck import fsck

pytestmark = pytest.mark.usefixtures("fast_service")

SRC = str(Path(__file__).resolve().parent.parent / "src")
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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


# ----------------------------------------------------------------------
class TestJobQueue:
    def test_submit_lease_complete(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        assert submit(q, "a") is True
        assert q.counts() == {"queued": 1, "leased": 0, "sharded": 0, "done": 0, "failed": 0, "quarantined": 0}
        (job,) = q.lease("w1")
        assert job.key == "a" and job.attempts == 1 and job.spec == {"k": "a"}
        assert q.counts()["leased"] == 1
        assert q.complete("a", "w1") is True
        assert q.counts()["done"] == 1
        assert q.drained()

    def test_submit_is_idempotent(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        assert submit(q, "a") is True
        assert submit(q, "a") is False  # deduplicated, not re-queued
        assert q.counts()["queued"] == 1

    def test_resubmit_revives_failed_job(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom")
        assert q.counts()["failed"] == 1
        assert submit(q, "a") is True  # revived
        assert q.counts() == {"queued": 1, "leased": 0, "sharded": 0, "done": 0, "failed": 0, "quarantined": 0}

    @staticmethod
    def _fail_by_expiry(q, owner):
        q.lease(owner, lease_s=0.05)
        time.sleep(0.1)
        assert q.lease("reaper") == []
        return q.job("a")

    def test_resubmit_clears_death_history(self, tmp_path):
        # A revived job starts clean, as after dlq_retry: the first
        # attempt's death must not count toward poison detection.
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        job = self._fail_by_expiry(q, "A")
        assert job.status == "failed" and len(q.deaths("a")) == 1
        assert submit(q, "a", max_attempts=1) is True
        job = q.job("a")
        assert (job.status, q.deaths("a"), job.failure, job.finished_at) == ("queued", [], None, None)
        job = self._fail_by_expiry(q, "B")
        assert job.status == "failed"
        assert job.error.startswith("lease expired after 1 attempt(s)")
        assert [d["worker"] for d in q.deaths("a")] == ["B"]

    def test_resubmit_sharded_clears_death_history(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        self._fail_by_expiry(q, "A")
        assert q.submit_sharded("a", {"k": "a"}, None, "a", chunks=[(0, 3), (3, 6)]) is True
        job = q.job("a")
        assert (job.status, q.deaths("a"), job.failure, job.finished_at) == ("sharded", [], None, None)

    def test_fail_retryable_requeues_until_attempt_cap(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=2)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "transient")
        assert q.counts()["queued"] == 1  # attempt 1 of 2: requeued
        (job,) = q.lease("w1")
        assert job.attempts == 2
        q.fail(job.key, "w1", "transient")
        assert q.counts()["failed"] == 1  # cap reached
        assert q.job("a").error == "transient"

    def test_expired_lease_is_relet_to_next_worker(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        (job,) = q.lease("w1", lease_s=0.05)
        assert q.lease("w2") == []  # still held
        time.sleep(0.1)
        (job,) = q.lease("w2")
        assert job.lease_owner == "w2" and job.attempts == 2

    def test_expiry_past_attempt_cap_fails_the_job(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        q.lease("w1", lease_s=0.05)
        time.sleep(0.1)
        assert q.lease("w2") == []
        assert q.counts()["failed"] == 1

    def test_heartbeat_extends_only_its_own_leases(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        submit(q, "b")
        q.lease("w1", lease_s=5.0)
        q.lease("w2", lease_s=5.0)
        before = {job.key: job.lease_expires for job in q.jobs()}
        assert q.heartbeat("w1", "a", 0, 0, lease_s=600.0) == 1
        after = {job.key: job.lease_expires for job in q.jobs()}
        assert after["a"] > before["a"] + 500
        assert after["b"] == before["b"]
        assert q.complete("a", "w2") is False  # wrong owner cannot complete

    def test_heartbeat_never_takes_back_a_relet_lease(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1", lease_s=0.05)
        time.sleep(0.1)
        (job,) = q.lease("w2")
        assert q.heartbeat("w1", "a", 0, 0) == 0
        assert q.job("a").lease_owner == "w2"
        assert q.job("a").lease_expires == job.lease_expires

    @pytest.mark.parametrize("end", ["stopped", "dead"])
    def test_a_late_beat_leaves_a_terminal_row_alone(self, tmp_path, end):
        q = JobQueue(tmp_path / "q.sqlite")
        q.register_worker("w", pid=1)
        if end == "stopped":
            q.deregister_worker("w", "stopped", jobs_done=3, reps_done=12)
        else:
            q.report_worker_death("w", pid=1)
        q.heartbeat("w", "x", 9, 99)
        (info,) = q.workers()
        assert info.state == end and info.current_key is None
        if end == "stopped":
            assert (info.jobs_done, info.reps_done) == (3, 12)

    def test_sweep_record_roundtrip(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        for key in ("a", "b"):
            submit(q, key)
        q.record_sweep("s1", {"axes": {"x": [1, 2]}}, ["a", "b"], title="demo")
        record = q.sweep("s1")
        assert record["keys"] == ["a", "b"]
        assert record["title"] == "demo"
        assert record["definition"] == {"axes": {"x": [1, 2]}}
        assert q.sweep_ids() == ["s1"]
        assert q.sweep("nope") is None

    def test_drained_for_subset_of_keys(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        submit(q, "b")
        (job,) = q.lease("w1")
        q.complete(job.key, "w1")
        assert q.drained([job.key])
        assert not q.drained()

    def test_old_schema_file_is_rejected_at_open(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript((FIXTURES / "queue_v7_schema.sql").read_text())
        conn.close()
        with pytest.raises(ValueError, match="missing jobs.parent") as exc:
            JobQueue(path)
        assert str(path) in str(exc.value) and "jobs.failure" in str(exc.value)
        conn = sqlite3.connect(path)
        # nothing was added to the file it rejected
        assert "parent" not in {r[1] for r in conn.execute("PRAGMA table_info(jobs)")}
        assert conn.execute("SELECT count(*) FROM jobs").fetchone() == (2,)
        conn.close()

    def test_fresh_file_has_the_queue_columns_in_order(self, tmp_path):
        JobQueue(tmp_path / "q.sqlite").close()
        conn = sqlite3.connect(tmp_path / "q.sqlite")
        cols = {t: [r[1] for r in conn.execute(f"PRAGMA table_info({t})")] for t in ("jobs", "workers")}
        conn.close()
        assert cols["jobs"] == [
            "key", "spec", "noise", "label", "status", "priority", "expected_s", "cached",
            "attempts", "max_attempts", "submitted_at", "client", "lease_owner",
            "lease_expires", "started_at", "finished_at", "error", "parent", "chunk_start",
            "chunk_stop", "failure",
        ]
        assert cols["workers"] == [
            "id", "pid", "started_at", "heartbeat_at", "state", "jobs_done", "current_key",
            "reps_done",
        ]


# ----------------------------------------------------------------------
class TestScheduler:
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

    def test_priority_dominates(self):
        ranked = scheduler.rank([self.job("lo"), self.job("hi", priority=5)], now=100.0)
        assert [j.key for j in ranked] == ["hi", "lo"]

    def test_cached_jobs_jump_the_queue(self):
        ranked = scheduler.rank([self.job("cold"), self.job("warm", cached=True)], now=100.0)
        assert ranked[0].key == "warm"

    def test_shortest_job_first_among_equals(self):
        ranked = scheduler.rank(
            [self.job("slow", expected_s=10.0), self.job("fast", expected_s=1.0)],
            now=100.0,
        )
        assert ranked[0].key == "fast"

    def test_aging_eventually_overtakes_priority(self):
        # one priority unit is worth 100 s of waiting
        assert scheduler.PRIORITY / scheduler.AGING == 100.0
        old = self.job("old", submitted_at=0.0)
        # Against a priority-1 job submitted *just now*, the old job's
        # accumulated age decides: under 100 s of waiting it loses,
        # past 100 s it overtakes every such newcomer.
        young = scheduler.rank([self.job("f", priority=1, submitted_at=50.0), old], now=50.0)
        starved = scheduler.rank([self.job("f", priority=1, submitted_at=150.0), old], now=150.0)
        assert young[0].key == "f"
        assert starved[0].key == "old"

    def test_tie_break_is_deterministic(self):
        a, b = self.job("a"), self.job("b")
        assert [j.key for j in scheduler.rank([b, a], now=100.0)] == ["a", "b"]

    def test_score_is_the_documented_formula(self):
        job = self.job(
            "j", priority=2, expected_s=3.0, cached=True, submitted_at=90.0,
            parent="p", siblings_active=1, dead_workers=2,
        )
        assert scheduler.score(job, now=100.0) == (
            2 * scheduler.PRIORITY + 10.0 * scheduler.AGING - 3.0 * scheduler.RUNTIME
            + scheduler.CACHE_HIT + scheduler.SHARD_PROGRESS - 2 * scheduler.HAZARD
        )

    def test_queue_leases_in_scheduler_order(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "bulk")
        submit(q, "urgent", priority=9)
        keys = [j.key for j in q.lease("w1", limit=2)]
        assert keys == ["urgent", "bulk"]

    @staticmethod
    def _lease_order(q):
        jobs = q.lease("probe", limit=2)
        for job in jobs:
            q.release(job.key, "probe")
        return [j.key for j in jobs]

    def test_hazard_demotes_a_job_that_killed_a_worker(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.report_worker_death("w1")
        submit(q, "b")
        # Equal priority, and "a" is older, yet one death sinks it.
        assert self._lease_order(q) == ["b", "a"]

    @pytest.mark.parametrize("revive", ["dlq_retry", "resubmit"])
    def test_revival_lifts_the_hazard_demotion(self, tmp_path, revive):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        q.lease("w1")
        q.report_worker_death("w1")
        assert q.job("a").status == "failed"
        if revive == "dlq_retry":
            assert q.dlq_retry("a") is True
        else:
            assert submit(q, "a", max_attempts=1) is True
        submit(q, "b")
        # The death predates the revival: "a" competes as a fresh job
        # and wins on age.
        assert self._lease_order(q) == ["a", "b"]


# ----------------------------------------------------------------------
class TestPruneWindow:
    """A retention window that is not a finite number of seconds >= 0
    is refused: ``max(0.0, nan)`` would read it as 0 and prune every
    finished row."""

    @staticmethod
    def finished(tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        assert q.complete("a", "w1") is True
        return q

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "-1", "7d"])
    def test_bad_environment_window_prunes_nothing(self, tmp_path, monkeypatch, raw):
        q = self.finished(tmp_path)
        monkeypatch.setenv("REPRO_PRUNE_S", raw)
        with pytest.raises(ValueError, match=f"REPRO_PRUNE_S must be .* got '{raw}'"):
            q.prune()
        assert q.job("a").status == "done"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_explicit_window_prunes_nothing(self, tmp_path, value):
        q = self.finished(tmp_path)
        with pytest.raises(ValueError, match="older_than_s must be"):
            q.prune(value)
        assert q.job("a").status == "done"

    def test_default_window_keeps_a_fresh_row(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PRUNE_S", raising=False)
        q = self.finished(tmp_path)
        assert q.prune() == 0
        monkeypatch.setenv("REPRO_PRUNE_S", " 0 ")
        assert q.prune() == 1


# ----------------------------------------------------------------------
class TestSpecRoundTrip:
    def test_plain_spec(self):
        s = spec(strategy="TP", use_smt=False, workload_params={"cg_iters": 7})
        assert ExperimentSpec.from_dict(s.to_dict()) == s

    def test_noise_and_adaptive_survive(self):
        from repro.harness.adaptive import AdaptivePolicy

        s = spec(adaptive=AdaptivePolicy(target_rel_hw=0.05))
        revived = ExperimentSpec.from_dict(s.to_dict())
        assert revived.adaptive == s.adaptive
        from repro.noise import parse_noise_spec

        stack = NoiseStack(
            [parse_noise_spec("hpas.membw:start=0,duration=0.1,bandwidth_gbs=5")]
        )
        assert NoiseStack.from_dict(stack.to_dict()).kinds() == stack.kinds()


# ----------------------------------------------------------------------
def _hammer(root, specs_json, stats_path, salt):
    """Child-process body: run every spec against the shared store."""
    store = SharedResultStore(Path(root))
    specs = [ExperimentSpec.from_dict(d) for d in json.loads(specs_json)]
    # Deterministically different orders per process: more collisions.
    specs = specs[salt:] + specs[:salt]
    means = {}
    for s in specs:
        means[s.label() + f"/{s.seed}"] = float(store.get_or_run(s).mean).hex()
    st = store.stats()
    Path(stats_path).write_text(
        json.dumps({"stats": st, "means": means})
    )


class TestSharedResultStore:
    def test_second_read_is_a_hit(self, tmp_path):
        store = SharedResultStore(tmp_path)
        first = store.get_or_run(spec())
        again = store.get_or_run(spec())
        assert (first.times == again.times).all()
        assert store.stats()["hits"] == 1

    def test_matches_plain_result_cache_bytes(self, tmp_path):
        plain = ResultCache(tmp_path / "plain").get_or_run(spec())
        shared = SharedResultStore(tmp_path / "shared").get_or_run(spec())
        assert [t.hex() for t in plain.times] == [t.hex() for t in shared.times]

    def test_a_key_lock_dies_with_its_holder_not_its_forks(self, tmp_path):
        """A pool worker forked under a key lock outlives a SIGKILLed
        holder; its copy of the lock file must not keep the key locked."""
        import fcntl

        script = textwrap.dedent(
            f"""
            import os, sys, time
            sys.path.insert(0, {SRC!r})
            from repro.service import SharedResultStore
            with SharedResultStore({str(tmp_path)!r})._key_lock("k"):
                child = os.fork()
                if child == 0:
                    time.sleep(60)
                    os._exit(0)
                print(child, flush=True)
                time.sleep(60)
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE)
        child = int(proc.stdout.readline())
        try:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            fd = os.open(tmp_path / ".locks" / "k.lock", os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
        finally:
            os.kill(child, signal.SIGKILL)
            proc.stdout.close()

    def test_two_processes_never_resimulate(self, tmp_path):
        specs = [spec(seed=s) for s in range(6)]
        specs_json = json.dumps([s.to_dict() for s in specs])
        ctx = multiprocessing.get_context("spawn")
        procs = []
        for salt in (0, 3):
            stats_path = tmp_path / f"stats{salt}.json"
            p = ctx.Process(
                target=_hammer,
                args=(str(tmp_path / "store"), specs_json, str(stats_path), salt),
            )
            p.start()
            procs.append((p, stats_path))
        for p, _ in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        reports = [json.loads(path.read_text()) for _, path in procs]
        # Every key was simulated exactly once across both processes:
        # a process's own simulations are its misses not served under
        # the per-key lock.
        sims = sum(
            r["stats"]["misses"] - r["stats"]["shared_hits"] for r in reports
        )
        assert sims == len(specs)
        # ... and both observed bit-identical results for every cell.
        assert reports[0]["means"] == reports[1]["means"]


# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    def parts(self, tmp_path):
        queue = JobQueue(tmp_path / "queue.sqlite")
        store = SharedResultStore(tmp_path / "store")
        return queue, store, ServiceClient(queue, store)

    def drain(self, queue, store, **kw):
        return Worker(queue, store, **kw).run(drain=True)

    def test_submit_drain_collect(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        key = client.submit(spec())
        assert queue.counts()["queued"] == 1
        assert self.drain(queue, store) == 1
        rs = client.run_cell(spec())
        assert client.stats()["store_served"] == 1
        golden = ResultCache(tmp_path / "golden").get_or_run(spec())
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
        assert queue.job(key).status == "done"

    def test_failed_job_surfaces_error(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        bad = spec(platform="no-such-platform")
        key = client.submit(bad, max_attempts=1)
        self.drain(queue, store)
        assert queue.job(key).status == "failed"
        with pytest.raises(RuntimeError, match="without a store entry"):
            client._collect_one(key, bad)

    def test_sweep_renders_identically_to_in_process(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        base = spec(reps=3, seed=9)
        sweep_id = client.submit_sweep(
            base, strategy=("Rm", "TP"), model=("omp", "sycl")
        )
        self.drain(queue, store)
        service_render = client.collect_sweep(sweep_id).render()
        in_process = sweep(
            base,
            cache=ResultCache(tmp_path / "golden"),
            strategy=("Rm", "TP"),
            model=("omp", "sycl"),
        ).render()
        assert service_render == in_process

    def test_sweep_records_a_generator_axis(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        base = spec(reps=2)
        sweep_id = client.submit_sweep(base, model=(m for m in ("omp", "sycl")))
        assert queue.sweep(sweep_id)["definition"]["axes"] == {"model": ["omp", "sycl"]}
        self.drain(queue, store)
        golden = sweep(base, cache=ResultCache(tmp_path / "golden"), model=("omp", "sycl"))
        assert client.collect_sweep(sweep_id).render() == golden.render()

    def test_sweep_helper_routes_through_service(self, tmp_path):
        queue, store, client = self.parts(tmp_path)
        worker = Worker(queue, store)
        t = threading.Thread(target=worker.run, kwargs={"drain": False})
        t.start()
        try:
            result = client.run_sweep(spec(reps=2), model=("omp", "sycl"))
        finally:
            worker.stop()
            t.join(timeout=30)
        assert len(result) == 2
        golden = sweep(
            spec(reps=2), cache=ResultCache(tmp_path / "golden"), model=("omp", "sycl")
        )
        assert result.render() == golden.render()

    def test_second_client_is_fully_store_served(self, tmp_path):
        queue, store, client1 = self.parts(tmp_path)
        base = spec(reps=2, seed=7)
        client1.submit_sweep(base, seed=tuple(range(10)), title="grid")
        self.drain(queue, store)
        engine_runs_before = self._engine_runs(tmp_path / "store")
        client2 = ServiceClient(queue, SharedResultStore(tmp_path / "store"))
        sweep_id = client2.submit_sweep(base, seed=tuple(range(10)), title="grid")
        stats = client2.stats()
        # >= 90% of the resubmitted grid never re-queued; here: all of it.
        assert stats["deduplicated"] == 10 and stats["submitted"] == 0
        client2.collect_sweep(sweep_id)
        # ... and nothing was re-simulated to serve the second client.
        assert self._engine_runs(tmp_path / "store") == engine_runs_before

    @staticmethod
    def _engine_runs(store_root):
        """Number of entry files = simulations that actually ran."""
        return len(list(Path(store_root).glob("*.json")))

    def test_campaign_seam_renders_identically(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BASELINE_REPS", "3")
        from repro.harness import campaigns

        queue, store, client = self.parts(tmp_path)
        worker = Worker(queue, store)
        t = threading.Thread(target=worker.run, kwargs={"drain": False})
        t.start()
        try:
            via_service = campaigns.table2(
                campaigns.CampaignSettings(service=client),
                platforms=("intel-9700kf",),
                workloads=("nbody",),
            ).render()
        finally:
            worker.stop()
            t.join(timeout=60)
        in_process = campaigns.table2(
            campaigns.CampaignSettings(cache=ResultCache(tmp_path / "golden")),
            platforms=("intel-9700kf",),
            workloads=("nbody",),
        ).render()
        assert via_service == in_process

    def test_campaign_adaptive_stays_out_of_the_client(self, tmp_path):
        """An adaptive campaign routed through a client leaves the
        client's own submits on the fixed-rep key; the campaign's cells
        still run adaptively."""
        from repro.harness import campaigns
        from repro.harness.adaptive import AdaptivePolicy

        queue, store, client = self.parts(tmp_path)
        adaptive = AdaptivePolicy(target_rel_hw=0.5, min_reps=3, batch=3)
        settings = campaigns.CampaignSettings(service=client, adaptive=adaptive, jobs=1)
        _spec, _stack, fixed = ResultCache(tmp_path / "plain").resolve_cell(spec())
        assert client.submit(spec()) == fixed
        assert queue.job(fixed).spec.get("adaptive") is None

        worker = Worker(queue, store)
        t = threading.Thread(target=worker.run, kwargs={"drain": False})
        t.start()
        try:
            rs = settings.submit_or_run(spec(seed=8))
        finally:
            worker.stop()
            t.join(timeout=60)
        assert rs.adaptive["policy"] == adaptive.to_dict()


# ----------------------------------------------------------------------
_KILLABLE_WORKER = textwrap.dedent(
    """
    import sys
    from pathlib import Path
    sys.path.insert(0, {src!r})
    from repro.service import JobQueue, SharedResultStore, Worker
    from repro.service import worker as worker_module
    worker_module.POLL_S = 0.02
    worker = Worker(
        JobQueue(Path({queue!r})),
        SharedResultStore(Path({store!r})),
        worker_id="victim",
        lease_s=1.0,
    )
    worker.run(drain=True)
    """
)


class TestKilledWorker:
    def test_sigkill_mid_lease_then_bit_identical_rerun(self, tmp_path):
        """The acceptance scenario: SIGKILL a worker mid-job, let the
        lease expire, drain with a second worker, and require the sweep
        to be byte-identical to a never-interrupted in-process run."""
        queue = JobQueue(tmp_path / "queue.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store)
        base = spec(
            workload="minife", workload_params={"cg_iters": 40}, reps=16, seed=3
        )
        sweep_id = client.submit_sweep(base, model=("omp", "sycl"))

        script = _KILLABLE_WORKER.format(
            src=SRC,
            queue=str(tmp_path / "queue.sqlite"),
            store=str(tmp_path / "store"),
        )
        proc = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if queue.jobs("leased"):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("victim worker never leased a job")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        leased = queue.jobs("leased")
        assert leased, "job should still look leased right after the kill"
        interrupted_key = leased[0].key

        # The second worker has to wait out the orphaned lease, then
        # re-runs the job from its original seeds.
        Worker(queue, store, worker_id="rescuer").run(drain=True)
        assert queue.counts()["failed"] == 0
        assert queue.job(interrupted_key).status == "done"
        assert queue.job(interrupted_key).attempts == 2

        service_render = client.collect_sweep(sweep_id).render()
        in_process = sweep(
            base,
            cache=ResultCache(tmp_path / "golden"),
            model=("omp", "sycl"),
        ).render()
        assert service_render == in_process


# ----------------------------------------------------------------------
class TestWorkerLiveness:
    def test_status_derives_lost_from_heartbeat_age(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store)
        queue.register_worker("fresh", pid=1)
        queue.register_worker("crashed", pid=2)
        queue.register_worker("retired", pid=3)
        queue.deregister_worker("retired", "stopped")
        with queue._lock:  # age only the crashed worker's heartbeat
            queue._conn.execute(
                "UPDATE workers SET heartbeat_at = heartbeat_at - 600"
                " WHERE id = 'crashed'"
            )
        states = {w["id"]: w["state"] for w in client.status()["workers"]}
        assert states == {"fresh": "idle", "crashed": "lost", "retired": "stopped"}
        # status reads the threshold when it runs
        monkeypatch.setattr(queue_module, "LOST_AFTER_S", 3600.0)
        states = {w["id"]: w["state"] for w in client.status()["workers"]}
        assert states["crashed"] == "idle"

    def test_worker_registers_beats_and_deregisters(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        Worker(queue, store, worker_id="w").run(drain=True)
        (info,) = queue.workers()
        assert info.id == "w" and info.state == "stopped"
        assert info.derived_state(time.time()) == "stopped"  # never lost

    @staticmethod
    def parts(tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        return queue, store, ServiceClient(queue, store)

    def test_a_long_job_reads_busy_and_keeps_its_lease(self, tmp_path, monkeypatch):
        """With the default 60 s lease, the registry row must still be
        stamped well inside the ``lost`` threshold while a job runs, or
        status calls a healthy worker lost and fsck takes its lease."""
        monkeypatch.setattr(worker_module, "_REGISTRY_BEAT_S", 0.05)
        monkeypatch.setattr(queue_module, "LOST_AFTER_S", 0.3)
        queue, store, client = self.parts(tmp_path)
        client.submit(spec())
        started, finish = threading.Event(), threading.Event()

        def long_job(*args, **kwargs):
            started.set()
            assert finish.wait(30)

        monkeypatch.setattr(store, "get_or_run", long_job)
        worker = Worker(queue, store, worker_id="w")
        thread = threading.Thread(target=worker.run, kwargs={"drain": True})
        thread.start()
        try:
            assert started.wait(30)
            time.sleep(0.6)  # twice the lost threshold below
            (row,) = client.status()["workers"]
            assert row["state"] == "busy"
            assert fsck(queue, store).dead_worker_leases == []
        finally:
            finish.set()
            thread.join(30)
        assert not thread.is_alive()
        assert queue.counts()["done"] == 1

    def test_one_heartbeat_thread_serves_every_job(self, tmp_path, monkeypatch):
        queue, store, client = self.parts(tmp_path)
        for seed in range(3):
            client.submit(spec(seed=seed))
        seen = []

        def job(*args, **kwargs):
            seen.append([t.ident for t in threading.enumerate() if t.name == "heartbeat"])

        monkeypatch.setattr(store, "get_or_run", job)
        Worker(queue, store, worker_id="w").run(drain=True)
        assert len(seen) == 3 and len(seen[0]) == 1
        assert seen[1] == seen[2] == seen[0]
        # the final counts arrive with the deregistration
        (info,) = queue.workers()
        assert (info.state, info.jobs_done, info.reps_done) == ("stopped", 3, 9)

    def test_a_lost_lease_counts_once(self, tmp_path, monkeypatch):
        queue, store, client = self.parts(tmp_path)
        client.submit(spec())
        rows = []

        def job_whose_lease_is_taken(*args, **kwargs):
            with queue._lock:
                queue._conn.execute("UPDATE jobs SET lease_owner = 'thief'")
            time.sleep(0.5)  # several beats at a 0.3 s lease
            rows.extend(queue.workers())

        monkeypatch.setattr(store, "get_or_run", job_whose_lease_is_taken)
        worker = Worker(queue, store, worker_id="w", lease_s=0.3)
        assert worker.run(max_jobs=1) == 1
        assert rows[0].heartbeat_at - rows[0].started_at > 0.3  # it beat meanwhile
        assert worker.stats()["lease_losses"] == 1


# ----------------------------------------------------------------------
class TestNotifyLeakHygiene:
    """Every wait/run exit path must unlink its fifo endpoint: leaked
    fifos turn each later notify() into wasted opens and (eventually)
    reap scans, so hygiene is a regression guarantee, not a nicety."""

    @staticmethod
    def fifos(queue):
        notify_root = queue.path.parent / f"{queue.path.name}.notify"
        return sorted(notify_root.rglob("*.fifo"))

    def test_client_wait_leaves_no_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store)
        client.wait()  # drained queue: immediate return
        assert self.fifos(queue) == []

    def test_client_wait_timeout_leaves_no_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store)
        queue.submit("a", spec={"k": "a"}, noise=None, label="a")
        with pytest.raises(TimeoutError):
            client.wait(timeout=0.05)
        assert self.fifos(queue) == []

    def test_worker_run_leaves_no_fifo(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        Worker(queue, store).run(drain=True)
        assert self.fifos(queue) == []

    def test_worker_crash_mid_run_leaves_no_fifo(self, tmp_path):
        """Even when the run loop dies on an unexpected error, the
        subscription teardown in the finally block must fire."""
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        worker = Worker(queue, store)
        worker.queue.lease = lambda *a, **kw: (_ for _ in ()).throw(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            worker.run(drain=True)
        assert self.fifos(queue) == []

    def test_subscription_close_is_idempotent(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        sub = queue.notify_submit.subscribe()
        sub.close()
        sub.close()  # second close must not raise or resurrect the fifo
        assert self.fifos(queue) == []

    def test_close_unlinks_fifo_even_if_os_close_fails(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "q.sqlite")
        sub = queue.notify_submit.subscribe()
        real_close = os.close

        def bad_close(fd):
            real_close(fd)
            raise OSError("synthetic close failure")

        monkeypatch.setattr(os, "close", bad_close)
        with pytest.raises(OSError, match="synthetic"):
            sub.close()
        monkeypatch.undo()
        assert self.fifos(queue) == []
