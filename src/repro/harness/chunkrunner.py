"""Transport-agnostic execution core for chunks of repetitions.

The parallel executor's pool workers and the campaign service's
remote-leased workers run the exact same code to turn ``(spec, noise,
rep indices)`` into :class:`RepResult` lists — this module is that
shared core, extracted from :mod:`repro.harness.executor` so the two
transports (pickled pool payloads, SQLite job leases) cannot drift.

What lives here:

* :func:`rep_seed` — the per-rep ``SeedSequence`` spawn-key contract
  every backend derives determinism from;
* the per-process resolved-context LRU (:func:`resolved_context`),
  keyed by :func:`~repro.harness.experiment.context_key` so chunk after
  chunk of one configuration resolves the world once per process;
* :func:`run_one_rep` — the contained attempt loop (timeouts, retries
  with deterministic backoff, ``skip`` semantics) shared by serial,
  pool, and service execution;
* :func:`run_chunk` — the chunk-level entry point: resolve once, run
  each index through the attempt loop, return results in index order.
  It knows nothing about how its inputs arrived or how its outputs
  travel home — the executor's pickled chunk results and the service's
  result store are layered on top.  The executor's in-process loop
  (serial backend, degraded pool) streams the same attempt loop rep by
  rep instead.

Determinism contract: rep ``i`` always draws from
``SeedSequence(spec.seed, spawn_key=(i,))`` and every retry rebuilds
that RNG from scratch, so results are bit-identical across backends,
worker counts, chunk sizes, transports, and lease re-dispatches.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.harness.chaos import get_chaos
from repro.harness.faults import (
    DEFAULT_POLICY,
    FailureRecord,
    FaultPolicy,
    RepExecutionError,
    rep_deadline,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import ExperimentSpec, ResolvedContext
    from repro.noise.base import NoiseStack
    from repro.sim.machine import RunResult

__all__ = [
    "RepResult",
    "rep_seed",
    "resolved_context",
    "run_chunk",
    "shard_ranges",
]

_log = logging.getLogger(__name__)


def rep_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Seed stream of repetition ``index`` of an experiment.

    Equal to ``SeedSequence(seed).spawn(reps)[index]`` for any
    ``reps > index`` (children are keyed by spawn position only), so
    workers can reseed any rep without materialising the full spawn.
    """
    return np.random.SeedSequence(seed, spawn_key=(index,))


def shard_ranges(reps: int, shard: int) -> list[range]:
    """Deterministic rep-slice boundaries for sharding a cell.

    The :func:`~repro.harness.executor.chunk_range` partition into
    ``shard``-rep slices in index order, so any transport can recompute
    the boundaries from ``(reps, shard)`` alone.
    """
    from repro.harness.executor import chunk_range

    if reps < 1:
        raise ValueError(f"shard_ranges needs reps >= 1, got {reps}")
    return chunk_range(range(reps), shard)


# ----------------------------------------------------------------------
# per-process resolved-context cache
# ----------------------------------------------------------------------
#: resolved contexts by context_key — kept tiny: a worker typically
#: sees one configuration at a time, a campaign a handful interleaved
_CONTEXT_CACHE_MAX = 8
_context_cache: "OrderedDict[str, ResolvedContext]" = OrderedDict()
_context_lock = threading.Lock()


def resolved_context(spec: "ExperimentSpec") -> "ResolvedContext":
    """The spec's :class:`ResolvedContext`, via the per-process LRU.

    Keyed by :func:`~repro.harness.experiment.context_key` (seed- and
    rep-count-independent), so adaptive batches, sweep cells that vary
    only the seed, and repeated chunks of one campaign cell all reuse
    one resolved world per process.
    """
    from repro.harness.experiment import context_key, resolve_context

    key = context_key(spec)
    group = _telemetry.get_group("context")
    with _context_lock:
        context = _context_cache.get(key)
        if context is not None:
            _context_cache.move_to_end(key)
            group.inc("hits")
            return context
    context = resolve_context(spec)
    with _context_lock:
        group.inc("builds")
        _context_cache[key] = context
        while len(_context_cache) > _CONTEXT_CACHE_MAX:
            _context_cache.popitem(last=False)
    return context


# ----------------------------------------------------------------------
# per-rep outcome
# ----------------------------------------------------------------------
@dataclass
class RepResult:
    """Outcome of one repetition, tagged with its index."""

    index: int
    exec_time: float
    anomaly: Optional[str]
    #: full :class:`~repro.sim.machine.RunResult` (trace included) when
    #: the caller asked for it; ``None`` otherwise, and the rep then
    #: builds no trace at all
    run: Optional["RunResult"] = None
    #: terminal failure under a ``skip`` policy (``exec_time`` is NaN);
    #: ``None`` for a successful rep — including one that succeeded
    #: after retries, which is bit-identical to a clean first run
    error: Optional[FailureRecord] = None
    #: attempts consumed (1 = clean first run)
    attempts: int = 1


def _execute_rep(
    context: "ResolvedContext",
    spec: "ExperimentSpec",
    noise: Optional["NoiseStack"],
    index: int,
    keep_trace: bool,
) -> "RunResult":
    """Run repetition ``index`` on a prebuilt :class:`ResolvedContext`."""
    from repro.harness.experiment import run_resolved

    throttle_off = noise is not None and noise.disables_rt_throttle
    rng = np.random.default_rng(rep_seed(spec.seed, index))
    return run_resolved(
        context,
        rng,
        noise,
        rt_throttle=context.rt_throttle and not throttle_off,
        meta={"run": index, "spec": spec.label()},
        keep_trace=keep_trace,
    )


def run_one_rep(
    context: "ResolvedContext",
    spec: "ExperimentSpec",
    noise: Optional["NoiseStack"],
    index: int,
    need_runs: bool,
    policy: FaultPolicy,
    base_attempt: int = 0,
) -> RepResult:
    """Contained attempt loop for one repetition.

    ``need_runs`` asks for the full :class:`RunResult` on the returned
    item; without it the rep assembles no trace, since nothing would
    read one.

    Every attempt rebuilds the rep RNG from its original spawn key, so
    a success on attempt *k* is bit-identical to a clean first run.
    ``base_attempt`` counts prior *dispatches* of this rep (a chunk
    re-dispatched after a pool breakage, a job re-leased after a dead
    worker's lease expired), letting deterministic chaos injectors
    distinguish first attempts from recovery attempts.
    """
    started = time.perf_counter()
    local_attempt = 0
    while True:
        attempt = base_attempt + local_attempt
        local_attempt += 1
        try:
            chaos = get_chaos()
            # The span wraps the deadline and any chaos injection, so
            # failed/timed-out attempts surface as error-tagged spans;
            # disabled, no span object or attribute dict is built.
            with _telemetry.span(
                "rep" if attempt == 0 else "retry",
                spec=spec.label(),
                rep=index,
                attempt=attempt,
            ) if _telemetry.enabled() else nullcontext():
                with rep_deadline(policy.timeout):
                    if chaos is not None:
                        chaos.rep_fault(spec.seed, index, attempt, policy.timeout)
                    result = _execute_rep(context, spec, noise, index, need_runs)
            return RepResult(
                index=index,
                exec_time=result.exec_time,
                anomaly=result.anomaly,
                run=result if need_runs else None,
                attempts=local_attempt,
            )
        except Exception as exc:
            wall = time.perf_counter() - started
            if local_attempt <= policy.retries:
                _log.warning(
                    "rep %d of %s failed (attempt %d, %s: %s); retrying",
                    index,
                    spec.label(),
                    local_attempt,
                    type(exc).__name__,
                    exc,
                )
                delay = policy.backoff_delay(spec.seed, index, local_attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            record = FailureRecord.from_exception(index, "rep", exc, local_attempt, wall)
            if policy.on_failure == "skip":
                _log.warning(
                    "rep %d of %s failed terminally after %d attempt(s) (%s: %s); skipping",
                    index,
                    spec.label(),
                    local_attempt,
                    type(exc).__name__,
                    exc,
                )
                return RepResult(
                    index=index,
                    exec_time=float("nan"),
                    anomaly=None,
                    run=None,
                    error=record,
                    attempts=local_attempt,
                )
            if policy.on_failure == "raise" and local_attempt == 1:
                # Fail-fast default: the original exception, unchanged.
                raise
            raise RepExecutionError(
                f"rep {index} of {spec.label()} failed terminally after "
                f"{local_attempt} attempt(s) in pid {os.getpid()}: "
                f"{type(exc).__name__}: {exc}",
                record,
            ) from exc


# ----------------------------------------------------------------------
# chunk-level core
# ----------------------------------------------------------------------
def run_chunk(
    spec: "ExperimentSpec",
    noise: Optional["NoiseStack"],
    indices,
    need_runs: bool = False,
    policy: Optional[FaultPolicy] = None,
    base_attempt: int = 0,
) -> list[RepResult]:
    """Run every index in ``indices``; results in index order.

    The chunk-level entry point of both transports: the pool worker
    entry point and the service :class:`~repro.service.worker.Worker`
    call it, so a cell re-leased after a worker death replays
    byte-for-byte the code path an uninterrupted pool dispatch runs.
    Raises whatever the policy lets escape (wrapped by the caller's
    transport shim into :class:`RepExecutionError` as needed).
    """
    policy = policy if policy is not None else DEFAULT_POLICY
    context = resolved_context(spec)
    return [
        run_one_rep(context, spec, noise, i, need_runs, policy, base_attempt)
        for i in indices
    ]
