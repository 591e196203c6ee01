"""Pluggable execution backends for experiment repetitions.

Every repetition of an experiment is an independent deterministic
function of ``(spec, noise, rep_index)``: the per-rep RNG is
derived from the spec's seed via a ``SeedSequence`` spawn key equal to
the rep index, and results are written back *by index*.  That makes the
rep loop embarrassingly parallel — the paper's protocol needs ~1000
baseline and 200 injected runs per table cell, and nothing couples one
rep to another.

Two backends implement the same range contract:

* :class:`SerialExecutor` — the classic in-process loop (default);
* :class:`ParallelExecutor` — a ``concurrent.futures``
  ``ProcessPoolExecutor`` dispatching *chunks of rep indices*.  Workers
  receive only picklable inputs (``spec``, the ``NoiseStack``, the
  index chunk) and resolve platform / workload / placement locally, so
  no simulator state crosses the process boundary.  Noise stacks ride
  along as pure data; each member source spawns its own child RNG from
  the rep's ``SeedSequence``, so composite noise stays bit-identical
  at any worker count.

Batched execution
-----------------
Resolving a spec (platform preset, workload, placement, expected
duration) is pure, so both backends run reps against a
:class:`~repro.harness.experiment.ResolvedContext` held in a small
per-process cache keyed by
:func:`~repro.harness.experiment.context_key` — a worker that receives
chunk after chunk of the same configuration (or of the same sweep cell
at different seeds) resolves the world once instead of once per chunk.
Cache activity is counted in the shared ``context`` telemetry group
(``builds`` / ``hits``).

Result transport
----------------
Pool workers send each chunk's ``RepResult`` list home through the
pool's own pickle channel, as ``(results, telemetry_blob_or_None)``.
An exec time is one 8-byte float per rep, so pickling it is exact and
cheap.  Full ``RunResult`` payloads (``need_runs``, the
``on_run``/trace-collection path) travel the same way, traces
included.  A rep builds its trace only for such a consumer: without
``need_runs`` no backend assembles one.  ``stats()`` counts every
returned chunk as ``pickle_chunks``; ``shm_chunks`` stays in the shape
and is always 0.

Worker-invariant determinism contract
-------------------------------------
``times[i]`` and ``anomalies[i]`` are bit-identical for ``jobs=1``,
``jobs=4``, and any chunk partition.  This holds by construction: rep ``i``
always draws from ``SeedSequence(spec.seed, spawn_key=(i,))`` — exactly
the ``i``-th child of ``SeedSequence(spec.seed).spawn(reps)`` — and the
chunk map preserves index order.  ``tests/test_executor.py`` enforces
the guarantee bitwise.

Fault tolerance
---------------
Both backends accept a :class:`~repro.harness.faults.FaultPolicy` and
run every repetition through the same contained attempt loop: per-rep
``SIGALRM`` timeouts, bounded retries with deterministic backoff, and
``skip`` semantics that convert a terminally failing rep into a
NaN-timed :class:`RepResult` carrying a structured
:class:`~repro.harness.faults.FailureRecord`.  A retried rep rebuilds
its RNG from the *original* per-rep spawn key, so a rep that succeeds
on attempt *k* is bit-identical to one that succeeded immediately — the
golden-equivalence suite proves it under injected chaos.

Every rep run in the caller's process — the serial backend, a run too
small for a pool, a degraded pool's remainder — goes through one loop,
``Executor._run_serial``.  The parallel backend dispatches chunks as
individual futures with deadlines through one loop, which also
survives infrastructure failure.  A failed submit, a
``BrokenProcessPool`` (e.g. a worker killed by the OOM killer — or by
the :mod:`~repro.harness.chaos` harness) and a chunk past its deadline
all retire the pool the same way (workers killed, teardown awaited)
and re-dispatch only the unfinished chunks on a fresh pool.  Breakages
count in ``pool_rebuilds``, and after ``max_pool_breaks`` consecutive
ones the executor degrades to in-process serial execution for the
remainder (logged, visible in :meth:`Executor.stats`).  A missed
deadline counts in ``chunk_timeouts`` only, so a hung chunk never
re-runs in-process; once it has used its re-dispatches it goes
terminal under the policy.

Rep ranges
----------
``run_rep_range`` returns a range: an iterable of the reps with a
``close()`` method.  On a pool its first round of chunks is submitted
when the range is made, so the pool keeps working while the caller
finishes something else before iterating it (a sweep makes its next
cache miss's range behind the current one).  Iterating runs the one
dispatch loop, with its recovery, deadlines and counters.  A range
whose pool was retired before it was iterated drops that round and
dispatches afresh at dispatch count 0, with nothing counted.
``close()`` ends a range early: it cancels the queued chunks and
waits out the running ones, so none outlives the caller.  A range run
in the caller's process is a generator, whose own ``close()`` gives
it the same interface and which submits nothing.

Backend selection is spec-independent: ``--jobs N`` on the CLI or the
``REPRO_JOBS`` environment variable (default ``1``; ``0`` means one
worker per CPU).  The chunk size is derived, not set: a range of ``n``
reps goes out in chunks of ``ceil(n / (jobs * 4))``, about four per
worker, so a slow chunk does not straggle the whole range.  No
partition changes a result, so there is nothing to tune per caller.
"""

from __future__ import annotations

import logging
import multiprocessing
import multiprocessing.util
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro import telemetry as _telemetry
from repro.harness.chaos import mark_worker

# The per-rep/per-chunk execution core lives in chunkrunner (shared
# with the campaign service's remote workers).
from repro.harness.chunkrunner import RepResult, run_chunk
from repro.harness.chunkrunner import resolved_context as _resolved_context
from repro.harness.chunkrunner import run_one_rep as _run_one_rep
from repro.harness.faults import (
    DEFAULT_POLICY,
    FailureRecord,
    FaultPolicy,
    RepExecutionError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import ExperimentSpec
    from repro.noise.base import NoiseStack

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_jobs",
    "get_executor",
    "chunk_range",
]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# chunking primitives
# ----------------------------------------------------------------------
def chunk_range(indices: range, size: int) -> list[range]:
    """Partition a step-1 index range into consecutive ``size``-rep
    slices in index order (the last may be shorter).

    A pure partition: an empty range yields no chunks and a ``size``
    past the range's length yields one.  ``size < 1`` and a non-unit
    step raise.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    if indices.step != 1:
        raise ValueError(f"rep indices must be a step-1 range, got step {indices.step}")
    return [indices[lo : lo + size] for lo in range(0, len(indices), size)]


def _run_rep_chunk(payload: tuple) -> tuple:
    """Worker entry point: simulate one chunk of rep indices.

    Receives only picklable data and resolves the simulation context
    locally (through the per-process context cache) — platform presets,
    workloads and placements are pure functions of the spec, so workers
    reconstruct the exact objects the parent would have used.  Any
    escaping exception is wrapped in a :class:`RepExecutionError`
    naming the spec, the chunk's rep indices, and the worker pid, so
    pool failures are attributable.

    ``payload`` is ``(spec, noise, indices, need_runs, policy,
    base_attempt, telem)``.  ``telem`` is the telemetry context
    ``{"parent": span_id}`` or ``None``: when set, the worker buffers
    its spans and counter deltas during the chunk and flushes them
    back as the blob.  Returns ``(results, blob_or_None)``.
    """
    spec, noise, indices, need_runs, policy, base_attempt, telem = payload
    mark_worker(True)
    token = None
    if telem is not None:
        if not _telemetry.enabled():
            # Spawn-start workers re-read REPRO_TELEMETRY on import; a
            # programmatic parent-side enable arrives via the payload.
            _telemetry.configure(enabled=True)
        token = _telemetry.worker_capture_begin(telem.get("parent"))
    try:
        with _telemetry.span(
            "chunk", spec=spec.label(), reps=len(indices)
        ) if (token is not None) else nullcontext():
            results = run_chunk(spec, noise, indices, need_runs, policy, base_attempt)
        blob = None
        if token is not None:
            blob = _telemetry.worker_capture_end(token)
            token = None
        return results, blob
    except RepExecutionError as exc:
        raise RepExecutionError(
            f"{exc.args[0]} (chunk reps {list(indices)})", exc.record
        ) from exc
    except Exception as exc:
        record = FailureRecord.from_exception(
            indices[0] if len(indices) else -1, "chunk", exc, base_attempt + 1, 0.0
        )
        raise RepExecutionError(
            f"chunk reps {list(indices)} of {spec.label()} failed in worker pid "
            f"{os.getpid()}: {type(exc).__name__}: {exc}",
            record,
        ) from exc
    finally:
        if token is not None:
            # Failed chunk: the exception is the only thing that can
            # cross back, so discard the partial capture (and restore
            # the worker's base parent for the next chunk).
            _telemetry.worker_capture_end(token)


class _PoolRange:
    """A rep range on a :class:`ParallelExecutor`'s pool whose first
    round is submitted when it is made (see "Rep ranges" above).
    Iterating it runs the dispatch loop; :meth:`close` ends it early."""

    def __init__(self, executor, spec, noise, indices, need_runs, policy, parent):
        self.executor = executor
        self.args = (spec, noise, indices, need_runs, policy)
        #: the unfinished chunks, in rep order
        self.chunks = executor._chunks(indices)
        #: the pool of the current round and its futures, one per
        #: unfinished chunk (``None``: the round is not submitted)
        self.pool = None
        self.futures = None
        if parent is None:
            parent = _telemetry.current_span_id()
        if not executor._degraded and not self._submit(0, parent):
            # The first iteration meets the same failure and recovers.
            for future in self.futures:
                future.cancel()
            self.futures = None
        self._reps = self._dispatch()

    def __iter__(self) -> Iterator[RepResult]:
        return self._reps

    def close(self) -> None:
        """Stop the range: cancel its queued chunks and wait out the
        running ones (a chunk past its policy's deadline retires the
        pool, as in the dispatch loop)."""
        self._reps.close()
        futures, self.futures = self.futures, None
        if not futures:
            return
        for future in futures:
            future.cancel()
        policy = self.args[-1]
        deadline = policy.chunk_deadline(max(len(c) for c in self.chunks))
        if _wait_futures(futures, timeout=deadline).not_done:
            self.executor._retire_pool(self.pool, broken=False)

    def _submit(self, dispatches: int, parent) -> bool:
        """Submit a round of the unfinished chunks to the live pool;
        False when the pool refuses it (broken or shut down)."""
        spec, noise, _indices, need_runs, policy = self.args
        self.pool, self.futures = self.executor._ensure_pool(), []
        try:
            self.executor._submit(
                self.pool, self.futures, spec, noise, self.chunks, need_runs, policy,
                dispatches, parent,
            )
        except (BrokenProcessPool, RuntimeError):
            return False
        return True

    def _dispatch(self) -> Iterator[RepResult]:
        ex, chunks = self.executor, self.chunks
        spec, noise, indices, need_runs, policy = self.args
        if self.pool is not ex._pool:
            # Made before its pool was retired: the retirement ended
            # the round's futures, so it dispatches afresh.
            self.futures = None
        # Chunks finish in order and a failed round re-dispatches every
        # unfinished one, so the unfinished chunks share one dispatch count.
        dispatches = 0
        while chunks:
            if ex._degraded:
                # The pool infrastructure is unhealthy: finish in-process.
                rest = range(chunks[0].start, indices.stop)
                yield from ex._run_serial(spec, noise, rest, need_runs, policy, dispatches)
                return
            failed = False
            if self.futures is None and not self._submit(
                dispatches, _telemetry.current_span_id()
            ):
                ex._retire_pool(self.pool, broken=True)
                failed = True
            pool, futures = self.pool, self.futures
            # In-order consumption streams completed chunks to the
            # caller while later chunks are still running (rep order is
            # chunk order).
            while chunks and not failed:
                deadline = policy.chunk_deadline(len(chunks[0]))
                try:
                    reps_list, blob = futures[0].result(timeout=deadline)
                except BrokenProcessPool:
                    _log.warning(
                        "process pool broke while running chunk reps %s of %s; "
                        "rebuilding and re-dispatching unfinished chunks",
                        list(chunks[0]),
                        spec.label(),
                    )
                    ex._retire_pool(pool, broken=True)
                    failed = True
                    break
                except FuturesTimeout:
                    ex._counters.inc("chunk_timeouts")
                    _log.warning(
                        "chunk reps %s of %s exceeded its %.1fs deadline; "
                        "killing workers and re-dispatching",
                        list(chunks[0]),
                        spec.label(),
                        deadline,
                    )
                    ex._retire_pool(pool, broken=False)
                    failed = True
                    if dispatches < policy.retries:
                        break
                    reps_list = ex._terminal_chunk(spec, chunks[0], policy)
                except RepExecutionError:
                    for future in futures[1:]:
                        future.cancel()  # fail fast: the rest would be wasted
                    raise
                else:
                    _telemetry.absorb_worker(blob)
                    ex._counters.inc("pickle_chunks")
                for rep in reps_list:
                    ex._account(rep)
                    yield rep
                del chunks[0], futures[0]
            self.futures = None
            if not failed:
                with ex._lock:
                    ex._consecutive_breaks = 0
            elif chunks:
                for future in futures:
                    future.cancel()
                dispatches += 1
                ex._counters.inc("chunk_redispatches", len(chunks))


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class Executor(ABC):
    """Strategy interface: iterate rep outcomes in index order."""

    #: worker count (1 for the serial backend)
    jobs: int = 1

    # class-level default so lightweight subclasses that skip __init__
    # (test doubles) still account correctly — the counter group is
    # created lazily on first use in that case
    _counters = None

    #: the keys stats() has always exposed, in their historical order
    _STAT_KEYS = ("rep_retries", "rep_failures")

    @abstractmethod
    def run_rep_range(
        self,
        spec: "ExperimentSpec",
        noise: Optional["NoiseStack"],
        indices: range,
        need_runs: bool = False,
        policy: Optional[FaultPolicy] = None,
        parent: Optional[str] = None,
    ) -> Iterable[RepResult]:
        """The range of :class:`RepResult` for each rep index in ``indices``.

        ``indices`` must be a step-1 range; results arrive in index
        order and are bit-identical at any backend/worker count.  The
        adaptive-rep loop uses this to dispatch incremental batches
        (``range(n, n+batch)``) without re-running earlier reps.
        ``need_runs`` asks for the full :class:`RunResult` payload
        (traces included) on every item — required by ``on_run``
        consumers such as trace collection.  ``policy`` governs
        containment of failing reps (default: fail fast).  ``parent``
        is the telemetry span that chunks submitted when the range is
        made report under (default: the current span).  The range is
        an iterable with a ``close()`` method (see "Rep ranges" in the
        module docstring).
        """

    def _account(self, rep: RepResult) -> None:
        """Count a rep's retries and terminal failure."""
        if rep.attempts > 1 or rep.error is not None:
            if self._counters is None:
                self._counters = _telemetry.new_group("executor")
            self._counters.inc("rep_retries", rep.attempts - 1)
            if rep.error is not None:
                self._counters.inc("rep_failures")

    def _run_serial(self, spec, noise, indices, need_runs, policy, base_attempt=0):
        """The in-process rep loop: the serial backend, runs too small
        for a pool round-trip, and a degraded pool's remainder.

        ``need_runs`` is the caller's: without it a rep builds no
        trace, which is most of what the full result costs.
        """
        context = _resolved_context(spec)
        for i in indices:
            rep = _run_one_rep(context, spec, noise, i, need_runs, policy, base_attempt)
            self._account(rep)
            yield rep

    def stats(self) -> dict:
        """Fault/recovery counters observed by this instance.

        A thin view over the telemetry counter registry — the shape is
        unchanged from the pre-telemetry ad-hoc dict.
        """
        counts = self._counters.as_dict() if self._counters is not None else {}
        return {key: int(counts.get(key, 0)) for key in self._STAT_KEYS}

    def close(self, force: bool = False) -> None:
        """Release backend resources (no-op for the serial backend)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process rep loop; ``on_run`` consumers observe runs live."""

    jobs = 1

    def __init__(self) -> None:
        self._counters = _telemetry.new_group("executor")

    def run_rep_range(self, spec, noise, indices, need_runs=False, policy=None, parent=None):
        policy = policy if policy is not None else DEFAULT_POLICY
        return self._run_serial(spec, noise, indices, need_runs, policy)

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Process-pool backend dispatching chunked rep indices.

    The pool is created lazily and kept alive across experiments (a
    campaign issues thousands of ``run_rep_range`` calls), and is safe to
    share between threads — the campaign runners fan independent table
    cells through it concurrently.  Results are yielded in rep order,
    so ``on_run`` consumers degrade to *ordered post-hoc delivery*
    rather than live streaming.

    Failure containment: chunks are dispatched as individual futures,
    and one dispatch loop handles every failure.  A failed submit, a
    broken pool (worker death) and a chunk past its policy deadline
    all retire the pool through :meth:`_retire_pool` (workers killed)
    and re-dispatch only the unfinished chunks on a fresh pool.  After
    ``max_pool_breaks`` *consecutive* breakages — missed deadlines do
    not count — the loop finishes in-process (the pool infrastructure
    itself is deemed unhealthy).  All of it is counted in :meth:`stats`.

    ``run_rep_range`` submits a range's first round when it is called
    and returns the range; iterating it runs the dispatch loop, and
    ``close()`` on it cancels its queued chunks and waits out the
    running ones (see the module docstring).
    """

    #: consecutive pool breakages tolerated before degrading to serial
    max_pool_breaks: int = 3

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self._pool = None
        self._lock = threading.Lock()
        self._shared = False
        self._degraded = False
        self._consecutive_breaks = 0
        #: recovery counters, kept in the telemetry registry (this is
        #: the registry entry ``stats()`` is a thin view over)
        self._counters = _telemetry.new_group("executor")

    #: ``shm_chunks`` is never incremented and stays for readers of the
    #: shape (every chunk returns by pickle)
    _STAT_KEYS = (
        "pool_rebuilds",
        "chunk_timeouts",
        "chunk_redispatches",
        "rep_retries",
        "rep_failures",
        "shm_chunks",
        "pickle_chunks",
    )

    def stats(self) -> dict:
        """Recovery counters plus the current ``degraded`` flag.

        The pre-telemetry return shape, extended by the ``shm_chunks`` /
        ``pickle_chunks`` chunk counters.
        """
        out = super().stats()
        with self._lock:
            out["degraded"] = self._degraded
        return out

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                from concurrent.futures import ProcessPoolExecutor

                # fork keeps worker start-up at milliseconds; fall back to
                # spawn where fork is unavailable (results are identical —
                # workers receive all state explicitly).
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
                self._pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
            return self._pool

    def _retire_pool(self, pool, broken: bool) -> None:
        """Kill a failed pool's workers and wait for its teardown.

        Idempotent per pool object, so concurrent threads observing the
        same failure retire it once.  Only a *broken* pool counts in
        ``pool_rebuilds`` and towards degrading to serial: a missed
        deadline kills the workers too, but a hung chunk must never
        re-run in the caller's process.

        The teardown runs under the lock, so no thread forks a new pool
        while this one's manager thread still holds its locks: a worker
        forked then inherits a held lock and deadlocks when it
        garbage-collects the old pool.  Workers get ``SIGKILL``: one
        forked by a service worker inherits that process's draining
        ``SIGTERM`` handler, survives ``SIGTERM`` and would hold the wait.
        """
        with self._lock:
            if pool is not self._pool:
                return  # another thread already retired it
            self._pool = None
            if broken:
                self._counters.inc("pool_rebuilds")
                self._consecutive_breaks += 1
                if self._consecutive_breaks >= self.max_pool_breaks and not self._degraded:
                    self._degraded = True
                    _log.error(
                        "process pool broke %d consecutive times; degrading to "
                        "serial in-process execution",
                        self._consecutive_breaks,
                    )
            for proc in list(pool._processes.values()):
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
            pool.shutdown(wait=True, cancel_futures=True)

    def _terminal_chunk(self, spec, chunk: range, policy: FaultPolicy) -> list[RepResult]:
        """Resolve a chunk that timed out on every dispatch it was granted."""
        message = (
            f"chunk reps {list(chunk)} of {spec.label()} kept timing out after "
            f"{policy.retries + 1} dispatch(es)"
        )
        if policy.on_failure != "skip":
            raise RepExecutionError(message)
        _log.warning("%s; skipping per policy", message)
        out = []
        for i in chunk:
            record = FailureRecord(
                index=i,
                phase="chunk",
                error="ChunkTimeout",
                message=message,
                traceback_digest="-",
                attempts=policy.retries + 1,
                wall_time=0.0,
            )
            out.append(
                RepResult(
                    index=i,
                    exec_time=float("nan"),
                    anomaly=None,
                    error=record,
                    attempts=policy.retries + 1,
                )
            )
        return out

    # ------------------------------------------------------------------
    def _chunks(self, indices: range) -> list[range]:
        """``indices`` in about four chunks per worker."""
        return chunk_range(indices, max(1, -(-len(indices) // (self.jobs * 4))))

    @staticmethod
    def _submit(pool, futures, spec, noise, chunks, need_runs, policy, dispatches, parent):
        """Submit one round of ``chunks`` to ``pool``, appending to ``futures``.

        Telemetry context rides in the payload so worker spans parent
        to ``parent``; None keeps the disabled path allocation-free in
        the workers.
        """
        telem = {"parent": parent} if _telemetry.enabled() else None
        for chunk in chunks:
            payload = (spec, noise, chunk, need_runs, policy, dispatches, telem)
            futures.append(pool.submit(_run_rep_chunk, payload))

    def run_rep_range(self, spec, noise, indices, need_runs=False, policy=None, parent=None):
        policy = policy if policy is not None else DEFAULT_POLICY
        if len(indices) <= 1 or self.jobs <= 1:
            # Not worth a pool round-trip; the serial path is bit-identical.
            return self._run_serial(spec, noise, indices, need_runs, policy)
        return _PoolRange(self, spec, noise, indices, need_runs, policy, parent)

    def close(self, force: bool = False) -> None:
        """Shut the pool down.

        Shared instances (handed out by :func:`get_executor`) survive
        ``close()`` / ``with`` blocks: other campaign threads may still
        hold them.  They are torn down at interpreter exit (or with
        ``force=True``).
        """
        if self._shared and not force:
            return
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count from an explicit value or ``REPRO_JOBS``.

    ``None`` reads the environment (default 1); ``0`` means one worker
    per CPU; negative values are rejected.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer (0 = one worker per CPU), got {raw!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


#: shared parallel backends keyed by worker count — campaigns issuing
#: thousands of experiments reuse one warm pool instead of respawning
_shared: dict[int, ParallelExecutor] = {}


def _close_shared() -> None:
    for ex in _shared.values():
        ex.close(force=True)
    _shared.clear()


def get_executor(jobs: Optional[int] = None) -> Executor:
    """Backend for ``jobs`` workers (``None`` → ``REPRO_JOBS``).

    Parallel backends are pooled per worker count and *shared*: their
    ``close()`` is a no-op (other callers may still hold the same
    instance), and the warm pool is torn down at interpreter exit.
    """
    n = resolve_jobs(jobs)
    if n <= 1:
        return SerialExecutor()
    ex = _shared.get(n)
    if ex is None:
        if not _shared:
            # Runs at exit before multiprocessing joins the pool's idle
            # workers, also in a multiprocessing child (no atexit yet).
            multiprocessing.util.Finalize(None, _close_shared, exitpriority=100)
        ex = _shared[n] = ParallelExecutor(n)
        ex._shared = True
    return ex
