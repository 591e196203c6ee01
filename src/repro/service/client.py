"""Client front end: submit cells and sweeps, poll, collect results.

A :class:`ServiceClient` is how anything — the ``repro-noise service``
CLI, the campaign ``submit_or_run`` seam, a second user on the same
machine — talks to the service: it resolves a cell to its content-hash
key (the exact key any in-process run would compute), checks the
shared store first, and only queues work the store cannot serve.
Results are always *read from the store*, never from a worker
response channel, so a client cannot observe anything a plain
in-process run would not have produced — the float round-trip through
the envelope is exact, and tables render byte-identically.

Sweeps submit every grid point up front (workers pipeline across
cells) and are recorded in the queue as ordered key lists, so any
client can later collect a sweep it did not submit.

A **shard threshold** (``shard=`` per call, else
``REPRO_SHARD_REPS``) splits big cells into chunk sub-jobs at submit:
a cell with more reps than the threshold is queued as a ``sharded``
parent plus one leasable chunk per deterministic ``chunk_range`` slice,
so several workers chew one cell concurrently.  Sharding never changes
bytes — it only changes *which process* runs which rep indices, and
rep seeding is positional.  Adaptive-rep cells are never sharded (their
batch loop is inherently sequential).  Waiting is event-driven: the
client parks on the queue's complete notify channel instead of
sleeping the full poll interval between drain checks.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro import telemetry as _telemetry
from repro.harness.chunkrunner import resolved_context, shard_ranges
from repro.harness.experiment import ExperimentSpec, ResultSet, env_int
from repro.service.queue import DEFAULT_MAX_ATTEMPTS, JobQueue, revive_noise
from repro.service.store import SharedResultStore, settle_sharded

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import NoiseLike
    from repro.harness.sweep import SweepResult

__all__ = ["ServiceClient"]

_log = logging.getLogger(__name__)


class ServiceClient:
    """Submit/poll/collect front end over a queue + shared store.

    The client holds no run settings: a cell's shard threshold comes
    from the call's ``shard=`` (else ``REPRO_SHARD_REPS``; 0, the
    default, disables sharding), and its adaptive policy from its spec.
    """

    def __init__(
        self,
        queue: JobQueue,
        store: Optional[SharedResultStore] = None,
        client_id: Optional[str] = None,
        poll_s: float = 0.2,
    ):
        self.queue = queue
        self.store = store if store is not None else SharedResultStore()
        self.client_id = client_id or f"client-{os.getpid()}"
        self.poll_s = poll_s
        self._counters = _telemetry.new_group("service_client")

    def stats(self) -> dict:
        counts = self._counters.as_dict()
        return {
            key: int(counts.get(key, 0))
            for key in (
                "submitted",
                "sharded",
                "deduplicated",
                "store_served",
                "client_merges",
                "notify_wakes",
            )
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _expected_s(spec: ExperimentSpec) -> float:
        """Scheduler input: estimated cell runtime in simulated seconds.

        The resolved-context duration estimate (a pure function of the
        spec) times the rep count.  Estimation failures are worth a
        warning, not a refusal — the scheduler degrades to not knowing.
        """
        try:
            return resolved_context(spec).expected * max(1, spec.reps)
        except Exception as exc:
            _log.warning(
                "cannot estimate runtime of %s (%s: %s); scheduling it unweighted",
                spec.label(),
                type(exc).__name__,
                exc,
            )
            return 0.0

    @staticmethod
    def _shard_threshold(shard: Optional[int]) -> int:
        threshold = env_int("REPRO_SHARD_REPS", 0) if shard is None else shard
        return max(0, int(threshold or 0))

    def submit(
        self,
        spec: ExperimentSpec,
        noise: "NoiseLike" = None,
        priority: int = 0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        shard: Optional[int] = None,
    ) -> str:
        """Queue one cell; returns its content-hash key.

        Idempotent across clients: if the key is already queued,
        leased, sharded, or done, the existing job is shared (counted
        as ``deduplicated``).  The job record carries the rep-resolved
        spec, so the executing worker computes the identical key.

        ``shard`` (default: ``REPRO_SHARD_REPS``) splits a cell with
        more reps than the threshold into chunk sub-jobs of at most
        that many reps each; cells the store can already serve, and
        adaptive-rep cells (their batch loop is sequential by
        construction), always submit whole.
        """
        spec, stack, key = self.store.resolve_cell(spec, noise)
        threshold = self._shard_threshold(shard)
        noise_payload = stack.to_dict() if stack is not None else None
        if (
            threshold > 0
            and spec.reps > threshold
            and spec.adaptive is None
            and self.store.enabled
            and not self.store.has_entry(key)
        ):
            chunks = [
                (r.start, r.stop) for r in shard_ranges(spec.reps, threshold)
            ]
            created = self.queue.submit_sharded(
                key,
                spec=spec.to_dict(),
                noise=noise_payload,
                label=spec.label(),
                chunks=chunks,
                priority=priority,
                expected_s=self._expected_s(spec),
                max_attempts=max_attempts,
                client=self.client_id,
            )
            if created:
                self._counters.inc("submitted")
                self._counters.inc("sharded")
            else:
                self._counters.inc("deduplicated")
            return key
        created = self.queue.submit(
            key,
            spec=spec.to_dict(),
            noise=noise_payload,
            label=spec.label(),
            priority=priority,
            expected_s=self._expected_s(spec),
            cached=self.store.has_entry(key),
            max_attempts=max_attempts,
            client=self.client_id,
        )
        self._counters.inc("submitted" if created else "deduplicated")
        return key

    def run_cell(
        self,
        spec: ExperimentSpec,
        noise: "NoiseLike" = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        shard: Optional[int] = None,
    ) -> ResultSet:
        """The ``submit_or_run`` backend: store-serve or submit-and-wait.

        A cell the store can already serve never touches the queue
        (zero re-simulation for duplicate submissions); anything else
        is queued — sharded when over the threshold — and awaited; a
        sharded cell whose lost slices settling re-queued at collection
        is awaited again.  Requires at least one worker draining the
        queue, or ``timeout`` to bound each wait.
        """
        spec, stack, key = self.store.resolve_cell(spec, noise)
        rs = self.store.load_entry(key, spec)
        if rs is not None:
            self._counters.inc("store_served")
            return rs
        self.submit(spec, noise=stack, priority=priority, shard=shard)
        rs = None
        while rs is None:
            self.wait([key], timeout=timeout)
            rs = self._collect_one(key, spec)
        return rs

    def _collect_one(self, key: str, spec: ExperimentSpec) -> Optional[ResultSet]:
        """The cell's entry from the store, settling a sharded cell
        first (:func:`~repro.service.store.settle_sharded`) when every
        chunk is done but no merge ran — the merging worker died, say.
        ``None`` when settling re-queued lost slices: the cell is
        pending again."""
        rs = self.store.load_entry(key, spec)
        if rs is not None:
            return rs
        outcome = settle_sharded(self.queue, self.store, key)
        if outcome == "requeued":
            return None
        if outcome == "merged":
            self._counters.inc("client_merges")
            rs = self.store.load_entry(key, spec)
            if rs is not None:
                return rs
        job = self.queue.job(key)
        if job is not None and job.status == "quarantined":
            raise RuntimeError(
                f"cell {spec.label()} (key {key}) is quarantined in the "
                f"dead-letter queue: {job.error} — inspect with "
                f"`repro-noise service dlq show {key}`, revive with "
                f"`dlq retry` once the cause is fixed"
            )
        detail = f": {job.error}" if job is not None and job.error else ""
        raise RuntimeError(
            f"cell {spec.label()} (key {key}) completed without a store entry{detail}"
        )

    # ------------------------------------------------------------------
    def submit_sweep(
        self,
        base: ExperimentSpec,
        noise: "NoiseLike" = None,
        priority: int = 0,
        title: Optional[str] = None,
        shard: Optional[int] = None,
        **axes: Sequence,
    ) -> str:
        """Queue a whole grid up front; returns the sweep id.

        Enumeration order matches :func:`repro.harness.sweep.sweep`
        exactly (cartesian product in axis order), so the collected
        table is row-for-row identical to the in-process one.  The id
        is a content hash of the definition: re-submitting the same
        sweep from another client converges on the same record.
        """
        from repro.harness.sweep import grid

        values, _points, specs = grid(base, axes)
        _base, stack, _ = self.store.resolve_cell(base, noise)
        definition = {
            "base": base.to_dict(),
            "noise": stack.to_dict() if stack is not None else None,
            "axes": {name: list(axis) for name, axis in values.items()},
            "order": list(values),
            "title": title,
        }
        sweep_id = hashlib.sha256(
            json.dumps(definition, sort_keys=True).encode()
        ).hexdigest()[:16]
        with _telemetry.span("service_sweep", axes=",".join(values), id=sweep_id):
            keys = [
                self.submit(spec, noise=stack, priority=priority, shard=shard)
                for spec in specs
            ]
        self.queue.record_sweep(
            sweep_id, definition, keys, title=title, client=self.client_id
        )
        return sweep_id

    def collect_sweep(self, sweep_id: str) -> "SweepResult":
        """Assemble a completed sweep from the store.

        Rebuilds the grid from the recorded definition — same axis
        order, same enumeration — and loads every point's entry, so
        ``collect_sweep(submit_sweep(...)).render()`` is byte-identical
        to ``sweep(...).render()`` over the same cells.
        """
        from repro.harness.sweep import SweepResult, grid

        record = self.queue.sweep(sweep_id)
        if record is None:
            raise KeyError(f"unknown sweep id {sweep_id!r}")
        definition = record["definition"]
        base = ExperimentSpec.from_dict(definition["base"])
        noise = definition["noise"]
        axes = definition["axes"]
        values, points, specs = grid(
            base, {name: axes[name] for name in definition["order"]}
        )
        results: list[ResultSet] = []
        for spec in specs:
            spec, _stack, key = self.store.resolve_cell(spec, revive_noise(noise))
            rs = self._collect_one(key, spec)
            if rs is None:
                raise RuntimeError(
                    f"cell {spec.label()} (key {key}) lost chunk entries, which "
                    "were re-queued; collect again once the queue drains"
                )
            results.append(rs)
        return SweepResult(axes=tuple(values), points=points, results=results)

    def run_sweep(
        self,
        base: ExperimentSpec,
        noise: "NoiseLike" = None,
        priority: int = 0,
        timeout: Optional[float] = None,
        title: Optional[str] = None,
        shard: Optional[int] = None,
        **axes: Sequence,
    ) -> "SweepResult":
        """Submit a sweep, wait for it to drain, and collect it."""
        sweep_id = self.submit_sweep(
            base, noise=noise, priority=priority, title=title, shard=shard, **axes
        )
        keys = self.queue.sweep(sweep_id)["keys"]
        self.wait(keys, timeout=timeout)
        return self.collect_sweep(sweep_id)

    # ------------------------------------------------------------------
    def wait(
        self,
        keys: Optional[Sequence[str]] = None,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[dict], None]] = None,
        progress_interval: float = 2.0,
    ) -> None:
        """Block until the given keys (default: everything) are neither
        queued nor leased.  Raises ``TimeoutError`` on expiry.

        Event-driven: subscribes to the queue's complete notify channel
        *before* the first drain check (no lost-wakeup window) and
        parks there between checks, with ``poll_s`` as the fallback
        timeout — so completion latency is set by the channel, not the
        poll interval, yet a lost notification only costs one period.

        ``progress`` (when given) is called with the current
        :meth:`JobQueue.counts` dict at most every
        ``progress_interval`` seconds — refreshes ride the same notify
        wakeups, never an extra polling loop (``service watch
        --interval`` is this callback printing a line).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        next_progress = time.monotonic() + progress_interval
        subscription = self.queue.notify_complete.subscribe(
            probe=self.queue.data_version
        )
        try:
            while not self.queue.drained(keys):
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"queue did not drain within {timeout:.1f}s "
                        f"(status: {self.queue.counts()})"
                    )
                if progress is not None and time.monotonic() >= next_progress:
                    progress(self.queue.counts())
                    next_progress = time.monotonic() + progress_interval
                remaining = self.poll_s
                if deadline is not None:
                    remaining = min(remaining, max(0.0, deadline - time.monotonic()))
                if progress is not None:
                    remaining = min(
                        remaining, max(0.05, next_progress - time.monotonic())
                    )
                if subscription.wait(remaining):
                    self._counters.inc("notify_wakes")
        finally:
            subscription.close()

    def status(self, lost_after_s: Optional[float] = None) -> dict:
        """Queue counts, per-sweep progress, worker fleet liveness (with
        the heartbeat-derived ``lost`` state), DLQ summary, store
        statistics, fleet-wide lifecycle-event totals (``events``;
        ``events["expire"]`` counts leases lost to dead workers) and
        campaign progress (``progress``).  Reads only."""
        from repro.service.monitor import campaign_progress
        from repro.service.queue import DEFAULT_LOST_AFTER_S, _STATUSES

        if lost_after_s is None:
            lost_after_s = DEFAULT_LOST_AFTER_S
        counts = self.queue.counts()
        sweeps = []
        for sweep_id in self.queue.sweep_ids():
            record = self.queue.sweep(sweep_id)
            states = dict.fromkeys(_STATUSES, 0)
            for key in record["keys"]:
                job = self.queue.job(key)
                if job is not None:
                    states[job.status] += 1
            sweeps.append(
                {
                    "id": sweep_id,
                    "title": record["title"],
                    "cells": len(record["keys"]),
                    **states,
                }
            )
        now = time.time()
        workers = [
            {
                "id": info.id,
                "pid": info.pid,
                "state": info.derived_state(now, lost_after_s),
                "heartbeat_age_s": round(info.heartbeat_age(now), 1),
                "jobs_done": info.jobs_done,
                "current_key": info.current_key,
                "reps_done": info.reps_done,
            }
            for info in self.queue.workers()
        ]
        dlq = [
            {"key": job.key, "label": job.label, "error": job.error}
            for job in self.queue.dlq_list()
        ]
        return {
            "jobs": counts,
            "sweeps": sweeps,
            "workers": workers,
            "dlq": dlq,
            "store": self.store.stats(),
            "events": self.queue.event_counts(),
            "progress": campaign_progress(self.queue),
        }

