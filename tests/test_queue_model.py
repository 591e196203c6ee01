"""Queue reference model: ``JobQueue`` against a pure-Python model.

A Hypothesis state machine drives one queue through submit (and
re-submit), lease, observed worker deaths, retryable and terminal
failures, clean releases and ``dlq retry`` over a few keys and
workers.  After every step each job's status, attempt count and death
history since its last revival must match the model, and the job's
last status-changing lifecycle event must agree with its status.

Every lease must take the job the service's one ranking puts first.
With equal priorities, runtimes and store state that is the fewest
distinct dead workers since the last revival (the hazard term, 500
score units per worker, outweighs the milliseconds of age between
these submissions), then the oldest submission, then the key.
"""

import shutil
import tempfile
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

    @rule(key=st.sampled_from(KEYS))
    def submit(self, key):
        created = self.q.submit(key, {"k": key}, None, key, max_attempts=MAX_ATTEMPTS)
        job = self.jobs.get(key)
        assert created == (job is None or job.status == "failed")
        if created:  # new, or revived with a clean history
            self.jobs[key] = ModelJob(self._stamp(key))

    @precondition(lambda self: self._with("queued"))
    @rule(worker=st.sampled_from(WORKERS))
    def lease(self, worker):
        expect = min(
            self._with("queued"),
            key=lambda k: (self._dead_workers(k), self.jobs[k].submitted_at, k),
        )
        assert [j.key for j in self.q.lease(worker)] == [expect]
        job = self.jobs[expect]
        job.status, job.owner = "leased", worker
        job.attempts += 1

    @precondition(lambda self: self._with("leased"))
    @rule(data=st.data())
    def report_worker_death(self, data):
        owners = sorted({self.jobs[k].owner for k in self._with("leased")})
        worker = data.draw(st.sampled_from(owners))
        held = sorted(k for k, j in self.jobs.items() if j.owner == worker)
        assert sorted(self.q.report_worker_death(worker)) == held
        for key in held:
            job = self.jobs[key]
            job.deaths.append((worker, job.attempts))
            job.owner = None
            if self._dead_workers(key) >= POISON_DEATHS:
                job.status = "quarantined"
            elif job.attempts >= MAX_ATTEMPTS:
                job.status = "failed"
            else:
                job.status = "queued"

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
            last = [e for e in self.q.events(key) if e["event"] != "renew"][-1]
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
