"""Queue reference model: ``JobQueue`` against a pure-Python model.

A Hypothesis state machine drives one queue through submit (and
re-submit), lease, heartbeats, lease expiry, observed worker deaths,
completion, retryable and terminal failures, clean releases and ``dlq
retry`` over a few keys and workers.  After every step each job's
status, attempt count and death history since its last revival must
match the model, and the job's last lifecycle event must agree with
its status.

A heartbeat must extend exactly its own worker's leases.  An expired
lease is one its holder stopped beating for: the test ages the
holder's ``lease_expires`` into the past, and the next ``lease()`` call
sweeps it, recording a death that goes through the same poison and
attempt rules as an observed one.

Every lease must take the job the service's one ranking puts first.
With equal priorities, runtimes and store state that is the fewest
distinct dead workers since the last revival (the hazard term, 500
score units per worker, outweighs the milliseconds of age between
these submissions), then the oldest submission, then the key.
"""

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.service.queue import POISON_DEATHS, JobQueue

KEYS = ("a", "b")
WORKERS = ("w1", "w2", "w3")
MAX_ATTEMPTS = 3
#: a beat's lease; ageing a lease by an hour always puts it past due
BEAT_LEASE_S = 120.0

#: the status each status-changing event leaves its job in
_STATUS_AFTER = {
    "submit": "queued",
    "lease": "leased",
    "release": "queued",
    "retry": "queued",
    "expire": "queued",  # a terminal expiry is followed by its own event
    "quarantine": "quarantined",
    "complete": "done",
}


@dataclass
class ModelJob:
    submitted_at: float
    status: str = "queued"
    attempts: int = 0
    owner: Optional[str] = None
    #: ``(worker, attempt)`` per death since the last revival
    deaths: list = field(default_factory=list)


class QueueModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="queue-model-"))
        self.q = JobQueue(self.dir / "q.sqlite")
        self.jobs: dict[str, ModelJob] = {}

    def teardown(self):
        self.q.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _stamp(self, key: str) -> float:
        return self.q.job(key).submitted_at

    def _dead_workers(self, key: str) -> int:
        return len({worker for worker, _ in self.jobs[key].deaths})

    def _with(self, *statuses):
        return sorted(k for k, j in self.jobs.items() if j.status in statuses)

    def _held(self, worker):
        return [k for k in self._with("leased") if self.jobs[k].owner == worker]

    def _owners(self):
        return sorted({self.jobs[k].owner for k in self._with("leased")})

    def _die(self, key):
        """A death on a leased job: poison, then the attempt cap, else
        back to the queue."""
        job = self.jobs[key]
        job.deaths.append((job.owner, job.attempts))
        job.owner = None
        if self._dead_workers(key) >= POISON_DEATHS:
            job.status = "quarantined"
        elif job.attempts >= MAX_ATTEMPTS:
            job.status = "failed"
        else:
            job.status = "queued"

    @rule(key=st.sampled_from(KEYS))
    def submit(self, key):
        created = self.q.submit(key, {"k": key}, None, key, max_attempts=MAX_ATTEMPTS)
        job = self.jobs.get(key)
        assert created == (job is None or job.status == "failed")
        if created:  # new, or revived with a clean history
            self.jobs[key] = ModelJob(self._stamp(key))

    def _lease(self, worker, swept=()):
        """``worker`` leases after the past-due leases ``swept`` die."""
        for key in swept:
            self._die(key)
        queued = self._with("queued")
        expect = [
            min(queued, key=lambda k: (self._dead_workers(k), self.jobs[k].submitted_at, k))
        ] if queued else []
        assert [j.key for j in self.q.lease(worker)] == expect
        for key in expect:
            job = self.jobs[key]
            job.status, job.owner = "leased", worker
            job.attempts += 1

    @precondition(lambda self: self._with("queued"))
    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        self._lease(worker)

    @rule(worker=st.sampled_from(WORKERS))
    def heartbeat(self, worker):
        before = {key: self.q.job(key).lease_expires for key in self.jobs}
        held = self._held(worker)
        start = time.time()
        assert self.q.heartbeat(worker, None, 0, 0, BEAT_LEASE_S) == len(held)
        end = time.time()
        for key in self.jobs:
            after = self.q.job(key).lease_expires
            if key in held:
                assert start + BEAT_LEASE_S <= after <= end + BEAT_LEASE_S
            else:
                assert after == before[key]

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data(), worker=st.sampled_from(WORKERS))
    def expire(self, data, worker):
        """One owner stops beating: its leases go past due, and the
        next ``lease()`` call, by any worker, sweeps them."""
        owner = data.draw(st.sampled_from(self._owners()))
        with self.q._lock:
            self.q._conn.execute(
                "UPDATE jobs SET lease_expires = lease_expires - 3600"
                " WHERE status = 'leased' AND lease_owner = ?",
                (owner,),
            )
        self._lease(worker, swept=self._held(owner))

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data())
    def report_worker_death(self, data):
        worker = data.draw(st.sampled_from(self._owners()))
        held = self._held(worker)
        assert sorted(self.q.report_worker_death(worker)) == held
        for key in held:
            self._die(key)

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data(), worker=st.sampled_from(WORKERS))
    def complete(self, data, worker):
        key = data.draw(st.sampled_from(self._with("leased")))
        job = self.jobs[key]
        assert self.q.complete(key, worker) == (worker == job.owner)
        if worker == job.owner:  # the row keeps its last owner
            job.status = "done"

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data(), retryable=st.booleans())
    def fail(self, data, retryable):
        key = data.draw(st.sampled_from(self._with("leased")))
        job = self.jobs[key]
        assert self.q.fail(key, job.owner, "boom", retryable=retryable) is True
        job.owner = None
        job.status = "queued" if retryable and job.attempts < MAX_ATTEMPTS else "failed"

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data())
    def release(self, data):
        key = data.draw(st.sampled_from(self._with("leased")))
        job = self.jobs[key]
        assert self.q.release(key, job.owner) is True
        job.status, job.owner = "queued", None
        job.attempts -= 1

    @rule(key=st.sampled_from(KEYS))
    def dlq_retry(self, key):
        job = self.jobs.get(key)
        dead = job is not None and job.status in ("failed", "quarantined")
        assert self.q.dlq_retry(key) == dead
        if dead:
            self.jobs[key] = ModelJob(self._stamp(key))

    @invariant()
    def rows_match_the_model(self):
        for key, job in self.jobs.items():
            row = self.q.job(key)
            assert (row.status, row.attempts, row.lease_owner) == (
                job.status, job.attempts, job.owner
            )
            deaths = self.q.deaths(key)
            assert [(d["worker"], d["attempt"]) for d in deaths] == job.deaths

    @invariant()
    def last_status_event_matches_status(self):
        for key, job in self.jobs.items():
            last = self.q.events(key)[-1]
            if last["event"] == "fail":
                retryable = last["detail"].startswith("retryable")
                assert job.status == ("queued" if retryable else "failed")
            else:
                assert job.status == _STATUS_AFTER[last["event"]]


QueueModel.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None, database=None,
    derandomize=True,
)
TestQueueModel = QueueModel.TestCase
