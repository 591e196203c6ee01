"""Supervisor: restarts, backoff, crash loops, drain, and poison e2e."""

import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentSpec
from repro.service import JobQueue, ServiceClient, SharedResultStore, Supervisor, Worker
from repro.service import supervisor as supervisor_module

pytestmark = pytest.mark.usefixtures("fast_service")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def spec(**kw):
    kw.setdefault("platform", "intel-9700kf")
    kw.setdefault("workload", "nbody")
    kw.setdefault("reps", 3)
    kw.setdefault("seed", 42)
    return ExperimentSpec(**kw)


def make_supervisor(tmp_path, command, **kw):
    """A supervisor over throwaway child commands (no service stack)."""
    queue = JobQueue(tmp_path / "q.sqlite")
    kw.setdefault("workers", 1)
    sup = Supervisor(queue, command_factory=lambda worker_id: command, **kw)
    return queue, sup


class TestSupervisorMechanics:
    def test_clean_exit_parks_the_slot(self, tmp_path):
        queue, sup = make_supervisor(tmp_path, [sys.executable, "-c", "pass"], workers=2)
        assert sup.run() == 0
        assert all(slot.parked for slot in sup.slots)
        assert sup.stats()["spawned"] == 2
        assert sup.stats()["restarts"] == 0

    def test_crash_restarts_until_crash_loop_parks(self, tmp_path):
        queue, sup = make_supervisor(
            tmp_path, [sys.executable, "-c", "raise SystemExit(3)"]
        )
        deaths = sup.run()
        assert deaths == 3  # threshold crashes, then the slot is parked
        (slot,) = sup.slots
        assert slot.parked
        stats = sup.stats()
        assert stats["spawned"] == 3
        assert stats["restarts"] == 2
        assert stats["deaths_reported"] == 3
        assert stats["crash_loops"] == 1

    def test_each_restart_gets_a_distinct_worker_id(self, tmp_path):
        queue, sup = make_supervisor(
            tmp_path, [sys.executable, "-c", "raise SystemExit(1)"]
        )
        seen = []
        orig = sup._spawn

        def spy(slot):
            orig(slot)
            seen.append(slot.worker_id)

        sup._spawn = spy
        sup.run()
        assert len(seen) == len(set(seen)) == 3
        assert seen[0].endswith("-w0-r0") and seen[-1].endswith("-w0-r2")

    def test_observed_death_releases_lease_immediately(self, tmp_path, monkeypatch):
        """A crashed child's lease is released by report_worker_death,
        not by waiting out the lease expiry."""
        queue = JobQueue(tmp_path / "q.sqlite")
        queue.submit("a", spec={"k": "a"}, noise=None, label="a")
        # one crash parks: no retry churn
        monkeypatch.setattr(supervisor_module, "CRASH_LOOP_THRESHOLD", 1)
        sup = Supervisor(
            queue,
            workers=1,
            command_factory=lambda wid: [sys.executable, "-c", "raise SystemExit(9)"],
        )
        # Lease with the id the child *would* have used, with a lease
        # long enough that only death-reporting can release it in time.
        (job,) = queue.lease(sup._worker_id(sup.slots[0]), lease_s=3600.0)
        assert job.key == "a"
        sup.run()
        job = queue.job("a")
        assert job.status == "queued"
        assert job.lease_owner is None
        (death,) = queue.deaths("a")
        assert death["worker"].endswith("-w0-r0")
        assert "code 9" in death["detail"]

    def test_backoff_schedule_is_seeded_and_deterministic(self, tmp_path):
        def schedule(seed):
            queue, sup = make_supervisor(
                tmp_path / f"s{seed}", [sys.executable, "-c", "pass"], seed=seed
            )
            (slot,) = sup.slots
            out = []
            for restarts in (1, 2, 3, 4):
                slot.restarts = restarts
                out.append(sup._backoff(slot))
            return out

        a = schedule(7)
        assert a == schedule(7)
        assert a != schedule(8)
        # exponential shape: each uncapped step at least matches the
        # previous despite jitter (base doubles, jitter is in [0.5, 1.0])
        assert all(later >= earlier for earlier, later in zip(a, a[1:]))

    def test_min_one_worker_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            make_supervisor(tmp_path, ["true"], workers=0)

    def test_drain_signal_forwards_and_exits_cleanly(self, tmp_path):
        script = (
            "import signal, sys, time\n"
            "signal.signal(signal.SIGTERM, lambda *a: sys.exit(0))\n"
            "time.sleep(60)\n"
        )
        queue, sup = make_supervisor(
            tmp_path, [sys.executable, "-c", script], workers=2
        )
        done = {}
        t = threading.Thread(target=lambda: done.setdefault("deaths", sup.run()))
        t.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(slot.alive for slot in sup.slots):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("children never came up")
            time.sleep(0.2)  # let the children install their handlers
            # What the signal handler does on the first drain signal:
            sup._drain_signals = 1
            sup._stop.set()
            sup._signal_children(signal.SIGTERM)
            t.join(timeout=30)
        finally:
            sup._stop.set()
            t.join(timeout=30)
        assert not t.is_alive()
        assert done["deaths"] == 0  # SIGTERM exits are clean, not crashes
        assert all(slot.parked for slot in sup.slots)

    def test_fail_fast_sigkills_stragglers_and_releases_leases(self, tmp_path, monkeypatch):
        script = (
            "import signal, time\n"
            "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"  # never drains
            "time.sleep(60)\n"
        )
        monkeypatch.setattr(supervisor_module, "KILL_GRACE_S", 0.1)
        queue, sup = make_supervisor(tmp_path, [sys.executable, "-c", script])
        queue.submit("a", spec={"k": "a"}, noise=None, label="a")
        t = threading.Thread(target=sup.run)
        t.start()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if all(slot.alive for slot in sup.slots):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("child never came up")
            queue.lease(sup.slots[0].worker_id, lease_s=3600.0)
            # Second drain signal: arm the SIGKILL deadline.
            sup._drain_signals = 2
            sup._stop.set()
            sup._signal_children(signal.SIGTERM)
            t.join(timeout=30)
        finally:
            sup._stop.set()
            t.join(timeout=30)
        assert not t.is_alive()
        # The SIGKILLed straggler's lease was released on its way out.
        assert queue.job("a").status == "queued"


class TestPoisonJobEndToEnd:
    def test_poison_quarantined_then_revived_bit_identically(self, tmp_path, monkeypatch):
        """The acceptance scenario: a kill-worker! chaos job takes down
        two distinct supervised workers, lands in the DLQ with pid/spec
        forensics, and a dlq retry without chaos yields results
        byte-identical to an in-process run."""
        queue = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        client = ServiceClient(queue, store)
        poison = spec(reps=2, seed=5)
        key = client.submit(poison)

        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            # Persistently kill every service worker that leases any job.
            REPRO_CHAOS="kill-worker!:1:1.0",
        )
        # quarantine must trigger first
        monkeypatch.setattr(supervisor_module, "CRASH_LOOP_THRESHOLD", 10)
        sup = Supervisor(
            queue,
            store_root=tmp_path / "store",
            workers=1,
            drain=True,
            env=env,
        )
        deaths = sup.run()
        # Two distinct workers died on the job; the third incarnation
        # found the queue drained (quarantined is terminal) and exited.
        assert deaths == 2

        job = queue.job(key)
        assert job.status == "quarantined"
        failure = job.failure
        assert failure["reason"] == "poison"
        assert failure["record"]["error"] == "PoisonJob"
        # dlq show forensics: which workers, which pids, which spec/reps.
        deaths = queue.deaths(key)
        assert len(deaths) == 2
        workers = {d["worker"] for d in deaths}
        assert len(workers) == 2
        assert all(d["pid"] is not None for d in deaths)
        assert job.spec["workload"] == "nbody"
        assert job.spec["reps"] == 2
        assert (job,) == tuple(queue.dlq_list())

        # Revive without chaos: a plain worker drains it...
        assert queue.dlq_retry(key) is True
        revived = queue.job(key)
        assert revived.status == "queued" and revived.attempts == 0
        Worker(queue, store, worker_id="medic").run(drain=True)
        assert queue.job(key).status == "done"
        # ... and the result is bit-identical to a never-poisoned run.
        rs = client.run_cell(poison)
        golden = ResultCache(tmp_path / "golden").get_or_run(poison)
        assert [t.hex() for t in rs.times] == [t.hex() for t in golden.times]
