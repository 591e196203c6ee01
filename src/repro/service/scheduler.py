"""Scheduler: ranks queued cells for lease order.

Scoring is a pure function of the job row and the clock, so the
ranking is reproducible from the queue database alone::

    score = priority * PRIORITY
          + age_s    * AGING
          - expected_s * RUNTIME
          + (1 if store had the key at submit) * CACHE_HIT
          + (1 if a chunk of an in-flight cell)  * SHARD_PROGRESS
          - dead_workers * HAZARD

The weights are fixed module constants (score units are arbitrary;
only differences matter), and :meth:`JobQueue.lease
<repro.service.queue.JobQueue.lease>` always leases in this order.

* **priority** — client-assigned urgency, the dominant term;
* **aging** — seconds since submission, so starved low-priority work
  eventually overtakes fresh high-priority work;
* **expected runtime** — the resolved-context duration estimate times
  the rep count, recorded at submit; shorter cells first empties the
  queue fastest (smallest-job-first) without starving long ones
  (aging wins eventually);
* **cache-hit probability** — cells whose key already had a store
  entry at submit are near-free (the worker serves them from the
  store), so they jump the queue and unblock waiting clients early;
* **shard progress** — a chunk whose sibling chunks are already leased
  or done belongs to a cell that is *partially computed*: finishing it
  releases a whole merged result, while starting a fresh cell merely
  begins another.  Preferring in-flight cells bounds the number of
  half-done parents and cuts sweep tail latency;
* **hazard** — a job that has already killed a worker mid-lease is
  demoted below fresh work: ``lease()`` counts the distinct workers in
  the job's ``expire`` events since its last submission or retry.  If
  the job is poisonous, healthy cells finish first and fewer workers
  die confirming it before the dead-letter quarantine trips.

Ties break deterministically by submission time then key, so two
rankings of the same snapshot give the same order.  Scheduling
affects *when* a cell runs, never *what* it computes — results are
content-keyed and bit-identical in any execution order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.queue import Job

__all__ = ["score", "rank"]

#: per unit of client-assigned priority
PRIORITY = 100.0
#: per second of queue age — a cell gains one priority unit's worth of
#: score every ``PRIORITY / AGING`` seconds of waiting
AGING = 1.0
#: per second of expected runtime (subtracted: shortest-first)
RUNTIME = 10.0
#: flat bonus for cells already present in the shared store
CACHE_HIT = 1000.0
#: flat bonus for chunk sub-jobs whose cell is already in flight (some
#: sibling chunk leased or done) — finish before starting.  Below
#: ``CACHE_HIT`` (store-served cells stay near-free) and above five
#: priority units, so only an explicitly urgent fresh cell preempts
#: completing a half-done one.
SHARD_PROGRESS = 500.0
#: penalty per *distinct worker* a job has already killed mid-lease —
#: suspected-poisonous work runs after healthy work, so a bad cell takes
#: out the fleet as late and as rarely as possible.  Scaled like
#: ``SHARD_PROGRESS`` so one death roughly cancels the in-flight bonus
#: and outweighs five priority units.
HAZARD = 500.0


def score(job: "Job", now: float) -> float:
    """``job``'s lease score at wall time ``now`` (higher leases first)."""
    age = max(0.0, now - job.submitted_at)
    return (
        job.priority * PRIORITY
        + age * AGING
        - job.expected_s * RUNTIME
        + (CACHE_HIT if job.cached else 0.0)
        + (
            SHARD_PROGRESS
            if job.parent is not None and job.siblings_active > 0
            else 0.0
        )
        - job.dead_workers * HAZARD
    )


def rank(jobs: list["Job"], now: float) -> list["Job"]:
    """Jobs in lease order: descending score, stable deterministic
    tie-break (submission time, then key)."""
    return sorted(jobs, key=lambda j: (-score(j, now), j.submitted_at, j.key))
