"""Pluggable execution backends for experiment repetitions.

Every repetition of an experiment is an independent deterministic
function of ``(spec, noise, rep_index)``: the per-rep RNG is
derived from the spec's seed via a ``SeedSequence`` spawn key equal to
the rep index, and results are written back *by index*.  That makes the
rep loop embarrassingly parallel — the paper's protocol needs ~1000
baseline and 200 injected runs per table cell, and nothing couples one
rep to another.

Two backends implement the same iterator contract:

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
The parallel backend has two ways to get bulk per-rep outputs home:

* **pickle** — workers return ``RepResult`` lists through the pool's
  result queue (the serial/fallback path);
* **shm** — the parent allocates one ``multiprocessing.shared_memory``
  block per dispatch (float64 exec times, int16 attempt counts, int16
  anomaly codes) and workers write their chunk's slice in place;
  only a tiny marker (plus rare out-of-table anomaly names and
  failure records) is pickled back.  Exec times cross as raw 64-bit
  floats, so bit-identity is preserved exactly.

When full ``RunResult`` payloads are requested (``need_runs``, the
``on_run``/trace-collection path), the bulk *trace columns* also ride
shared memory: each chunk's worker concatenates its traces' arrays
(starts/durations float64, cpus/source_ids int32, etypes int8) into a
per-chunk segment whose name the **parent** chose and registered up
front, so the parent can unlink it on every exit path even if the
worker died mid-write.  Small per-rep remainders (source name tables,
metadata, migration counts) ride the pickled marker.  Rebuilt traces
are bit-identical: the columns cross as raw dtypes and the stable
``(start, cpu)`` re-sort in ``Trace.__init__`` is order-preserving on
already-sorted input.

``REPRO_SHM=0`` (or ``transport="pickle"``) forces the pickle path;
the default ``auto`` uses shared memory whenever it is available.  The
parent owns every segment — the scalar block it created and the trace
segments it named — and unlinks them in a ``finally`` that covers
chunk failure, pool rebuild, hung-chunk kills, and abandoned iterators
— workers only ever attach/create-by-given-name and close.
``stats()`` counts ``shm_chunks`` / ``pickle_chunks`` /
``shm_trace_chunks``.

Worker-invariant determinism contract
-------------------------------------
``times[i]`` and ``anomalies[i]`` are bit-identical for ``jobs=1``,
``jobs=4``, and any chunk size.  This holds by construction: rep ``i``
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

The parallel backend additionally survives infrastructure failure:
chunks are dispatched as individual futures with deadlines, a
``BrokenProcessPool`` (e.g. a worker killed by the OOM killer — or by
the :mod:`~repro.harness.chaos` harness) causes the pool to be rebuilt
and only the unfinished chunks re-dispatched, and after
``max_pool_breaks`` consecutive breakages the executor degrades to
in-process serial execution for the remainder (logged, visible in
:meth:`Executor.stats`).

Backend selection is spec-independent: ``--jobs N`` on the CLI or the
``REPRO_JOBS`` environment variable (default ``1``; ``0`` means one
worker per CPU).  Chunk sizing follows ``--chunk-size`` /
``REPRO_CHUNK_SIZE`` (default: automatic, ~4 chunks per worker).
"""

from __future__ import annotations

import atexit
import itertools
import logging
import multiprocessing
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.harness.chaos import mark_worker

# The per-rep/per-chunk execution core lives in chunkrunner (shared
# with the campaign service's remote workers).
from repro.harness.chunkrunner import DEFAULT_RUNNER, RepResult
from repro.harness.chunkrunner import resolved_context as _resolved_context
from repro.harness.chunkrunner import run_one_rep as _run_one_rep
from repro.harness.faults import (
    DEFAULT_POLICY,
    FailureRecord,
    FaultPolicy,
    RepExecutionError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.experiment import ExperimentSpec, ResolvedContext
    from repro.noise.base import NoiseStack

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_jobs",
    "resolve_chunk_size",
    "resolve_transport",
    "get_executor",
    "chunk_indices",
    "chunk_range",
]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# chunking primitives
# ----------------------------------------------------------------------
def resolve_chunk_size(chunk_size: Optional[int] = None) -> Optional[int]:
    """Chunk size from an explicit value or ``REPRO_CHUNK_SIZE``.

    ``None`` reads the environment; unset or ``0`` selects the
    automatic ~4-chunks-per-worker default (returned as ``None``).
    Anything else — argument or environment — must be ``>= 1``; the
    environment error names the variable (via ``env_int``).
    """
    if chunk_size is None:
        from repro.harness.experiment import env_int

        value = env_int("REPRO_CHUNK_SIZE", 0)
        if value == 0:
            return None
        if value < 0:
            raise ValueError(
                f"REPRO_CHUNK_SIZE must be >= 1 (or 0 for automatic sizing), got {value}"
            )
        return value
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    return chunk_size


def chunk_range(
    indices: range, jobs: int, chunk_size: Optional[int] = None
) -> list[range]:
    """Partition a contiguous index range into dispatch chunks.

    The default size targets ~4 chunks per worker so a slow chunk does
    not straggle the whole experiment; any size yields identical
    results (determinism is per-rep, not per-chunk).  Degenerate
    inputs fail loudly: ``jobs <= 0`` and ``chunk_size < 1`` raise,
    an empty range yields no chunks, and ``chunk_size > len(indices)``
    simply produces a single chunk.
    """
    if jobs <= 0:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if indices.step != 1:
        raise ValueError(f"rep indices must be a step-1 range, got step {indices.step}")
    n = len(indices)
    if n == 0:
        return []
    chunk_size = resolve_chunk_size(chunk_size)
    if chunk_size is None:
        chunk_size = max(1, -(-n // (jobs * 4)))
    return [indices[lo : lo + chunk_size] for lo in range(0, n, chunk_size)]


def chunk_indices(reps: int, jobs: int, chunk_size: Optional[int] = None) -> list[range]:
    """Partition ``range(reps)`` into contiguous dispatch chunks.

    Thin wrapper over :func:`chunk_range`; ``reps == 0`` yields no
    chunks, negative ``reps`` raises.
    """
    if reps < 0:
        raise ValueError(f"reps must be >= 0, got {reps}")
    return chunk_range(range(reps), jobs, chunk_size)


# ----------------------------------------------------------------------
# shared-memory result transport
# ----------------------------------------------------------------------
_shm_seq = itertools.count()


def _shm_available() -> bool:
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except Exception:  # pragma: no cover - platform without posix shm
        return False
    return True


def resolve_transport(transport: Optional[str] = None) -> str:
    """Transport mode from an explicit value or ``REPRO_SHM``.

    ``auto`` (default) writes bulk outputs through shared memory when
    available and falls back to pickling; ``pickle`` (or
    ``REPRO_SHM=0``) forces the classic path; ``shm`` behaves like
    ``auto`` but documents intent.
    """
    if transport is None:
        raw = os.environ.get("REPRO_SHM", "").strip().lower()
        if raw in ("0", "off", "pickle"):
            return "pickle"
        if raw in ("", "1", "on", "auto", "shm"):
            return "auto"
        raise ValueError(
            f"REPRO_SHM must be one of 0/1/on/off/auto/shm/pickle, got {raw!r}"
        )
    if transport not in ("auto", "shm", "pickle"):
        raise ValueError(f"transport must be auto, shm, or pickle, got {transport!r}")
    return transport


def _anomaly_code_table(context: "ResolvedContext") -> tuple:
    """Stable small-int coding of the platform's anomaly names.

    Code ``k > 0`` in a shm block means ``table[k - 1]``; names outside
    the table (custom noise models) travel in the chunk's pickled
    extras under code ``-1``.
    """
    try:
        candidates = context.platform.noise.anomalies.candidates
    except AttributeError:  # pragma: no cover - exotic platform stub
        return ()
    return tuple(dict.fromkeys(c.name for c in candidates))


class _ShmResultBlock:
    """Parent-owned shared-memory arrays for one dispatch's bulk outputs.

    Layout for ``n`` reps (one block spans the whole dispatched index
    range; chunks write disjoint slices):

    ========  =======  ==========================================
    offset    dtype    content
    ========  =======  ==========================================
    ``0``     f8[n]    exec times (NaN until written / on failure)
    ``8n``    i2[n]    attempts consumed
    ``10n``   i2[n]    anomaly codes (0 none, k>0 table, -1 extras)
    ========  =======  ==========================================

    The parent creates, names, and **unlinks** the segment; workers
    attach by name and close.  ``close()`` is idempotent and reached
    from ``run_rep_range``'s ``finally`` on every exit path — normal
    completion, chunk failure, pool rebuild, hung-chunk kill, or an
    abandoned result iterator — so no segment can outlive its dispatch.
    """

    __slots__ = ("base", "n", "codes", "name", "_seg", "_times", "_attempts", "_codes")

    def __init__(self, indices: range, codes: tuple):
        from multiprocessing import shared_memory

        n = len(indices)
        self.base = indices.start
        self.n = n
        self.codes = tuple(codes)
        self.name = f"repro_shm_{os.getpid()}_{next(_shm_seq)}"
        self._seg = shared_memory.SharedMemory(
            name=self.name, create=True, size=max(1, n * 12)
        )
        self._times = np.ndarray(n, dtype=np.float64, buffer=self._seg.buf, offset=0)
        self._attempts = np.ndarray(n, dtype=np.int16, buffer=self._seg.buf, offset=8 * n)
        self._codes = np.ndarray(n, dtype=np.int16, buffer=self._seg.buf, offset=10 * n)
        self._times.fill(float("nan"))
        self._attempts.fill(0)
        self._codes.fill(0)

    def descriptor(self) -> dict:
        """The picklable attachment recipe shipped in chunk payloads."""
        return {"name": self.name, "n": self.n, "base": self.base, "codes": self.codes}

    def extract(self, chunk: range, marker: dict) -> list[RepResult]:
        """Rebuild a chunk's :class:`RepResult` list from the arrays."""
        failures = marker.get("failures") or {}
        anomalies = marker.get("anomalies") or {}
        out = []
        for i in chunk:
            off = i - self.base
            code = int(self._codes[off])
            if code > 0:
                anomaly = self.codes[code - 1]
            elif code < 0:
                anomaly = anomalies.get(i)
            else:
                anomaly = None
            out.append(
                RepResult(
                    index=i,
                    exec_time=float(self._times[off]),
                    anomaly=anomaly,
                    error=failures.get(i),
                    attempts=int(self._attempts[off]) or 1,
                )
            )
        return out

    def close(self) -> None:
        """Release the views, close, and unlink (idempotent, no-raise)."""
        seg, self._seg = self._seg, None
        if seg is None:
            return
        # numpy views must drop their buffer exports before close()
        self._times = self._attempts = self._codes = None
        try:
            seg.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        try:
            seg.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - best-effort teardown
            pass


def _write_chunk_to_shm(desc: dict, reps: list[RepResult]) -> dict:
    """Worker side: write a chunk's results into the parent's block.

    Returns the marker dict that rides back through the pool (pickled):
    shm flag, terminal failure records, and anomaly names missing from
    the code table.  The worker only attaches and closes — the parent
    owns the segment's lifetime.
    """
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(name=desc["name"], create=False)
    try:
        n = desc["n"]
        base = desc["base"]
        times = np.ndarray(n, dtype=np.float64, buffer=seg.buf, offset=0)
        attempts = np.ndarray(n, dtype=np.int16, buffer=seg.buf, offset=8 * n)
        codes = np.ndarray(n, dtype=np.int16, buffer=seg.buf, offset=10 * n)
        code_of = {name: k + 1 for k, name in enumerate(desc["codes"])}
        failures: dict[int, FailureRecord] = {}
        anomalies: dict[int, str] = {}
        try:
            for rep in reps:
                off = rep.index - base
                times[off] = rep.exec_time
                attempts[off] = min(rep.attempts, 32767)
                if rep.error is not None:
                    failures[rep.index] = rep.error
                if rep.anomaly is None:
                    codes[off] = 0
                else:
                    code = code_of.get(rep.anomaly, -1)
                    codes[off] = code
                    if code < 0:
                        anomalies[rep.index] = rep.anomaly
        finally:
            del times, attempts, codes
        return {"shm": True, "failures": failures, "anomalies": anomalies}
    finally:
        seg.close()


# Trace-segment layout for E concatenated events: starts f8[E] at 0,
# durations f8[E] at 8E, cpus i32[E] at 16E, source_ids i32[E] at 20E,
# etypes i8[E] at 24E — 25 bytes/event total.
def _trace_views(buf, total: int) -> tuple:
    starts = np.ndarray(total, dtype=np.float64, buffer=buf, offset=0)
    durations = np.ndarray(total, dtype=np.float64, buffer=buf, offset=8 * total)
    cpus = np.ndarray(total, dtype=np.int32, buffer=buf, offset=16 * total)
    source_ids = np.ndarray(total, dtype=np.int32, buffer=buf, offset=20 * total)
    etypes = np.ndarray(total, dtype=np.int8, buffer=buf, offset=24 * total)
    return starts, durations, cpus, source_ids, etypes


def _write_runs_to_shm(name: str, reps: list[RepResult]) -> dict:
    """Worker side: ship a chunk's ``RunResult`` payloads via shm.

    The bulk trace columns of every rep are concatenated into one
    segment created under the parent-chosen ``name`` (the parent
    registered it before dispatch, so it can unlink the segment even if
    this worker dies mid-write).  Everything small — source name
    tables, metadata, migration/preemption counts — rides the returned
    marker entry, pickled.  Failed reps (no run) contribute a ``None``
    entry and zero events.
    """
    from multiprocessing import shared_memory

    entries: list = []
    traces = []
    total = 0
    for rep in reps:
        run = rep.run
        if run is None:
            entries.append(None)
            continue
        entry = {
            "index": rep.index,
            "migrations": run.migrations,
            "preemptions": run.preemptions,
            "meta": run.meta,
            "trace": None,
        }
        trace = run.trace
        if trace is not None:
            entry["trace"] = {
                "sources": trace.sources,
                "exec_time": trace.exec_time,
                "meta": trace.meta,
                "events": trace.n_events,
            }
            traces.append(trace)
            total += trace.n_events
        entries.append(entry)
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, 25 * total))
    try:
        starts, durations, cpus, source_ids, etypes = _trace_views(seg.buf, total)
        try:
            lo = 0
            for trace in traces:
                hi = lo + trace.n_events
                starts[lo:hi] = trace.starts
                durations[lo:hi] = trace.durations
                cpus[lo:hi] = trace.cpus
                source_ids[lo:hi] = trace.source_ids
                etypes[lo:hi] = trace.etypes
                lo = hi
        finally:
            del starts, durations, cpus, source_ids, etypes
    finally:
        seg.close()
    return {"name": name, "events": total, "entries": entries}


def _attach_runs_from_shm(runs: dict, reps: list[RepResult]) -> None:
    """Parent side: rebuild each rep's ``RunResult`` from a trace segment.

    Mutates the scalar-extracted ``reps`` in place.  Exec times and
    anomalies come from the scalar block (already exact); the trace
    columns are sliced out of the segment per rep — ``Trace.__init__``
    re-materialises them (stable re-sort of already-sorted input), so
    nothing keeps a reference into the segment after it is closed.
    """
    from multiprocessing import shared_memory

    from repro.core.trace import Trace
    from repro.sim.machine import RunResult

    seg = shared_memory.SharedMemory(name=runs["name"], create=False)
    try:
        starts, durations, cpus, source_ids, etypes = _trace_views(seg.buf, runs["events"])
        try:
            lo = 0
            for rep, entry in zip(reps, runs["entries"]):
                if entry is None:
                    continue
                trace = None
                tinfo = entry["trace"]
                if tinfo is not None:
                    hi = lo + tinfo["events"]
                    trace = Trace(
                        cpus[lo:hi],
                        etypes[lo:hi],
                        source_ids[lo:hi],
                        starts[lo:hi],
                        durations[lo:hi],
                        tinfo["sources"],
                        tinfo["exec_time"],
                        tinfo["meta"],
                    )
                    lo = hi
                rep.run = RunResult(
                    exec_time=rep.exec_time,
                    trace=trace,
                    anomaly=rep.anomaly,
                    migrations=entry["migrations"],
                    preemptions=entry["preemptions"],
                    meta=entry["meta"],
                )
        finally:
            del starts, durations, cpus, source_ids, etypes
    finally:
        seg.close()


def _unlink_shm(name: str) -> None:
    """Best-effort owner-side unlink of a named segment (idempotent)."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return
    except Exception:  # pragma: no cover - best-effort teardown
        return
    try:
        seg.close()
    except Exception:  # pragma: no cover - best-effort teardown
        pass
    try:
        seg.unlink()
    except Exception:  # pragma: no cover - best-effort teardown
        pass


def _run_rep_chunk(payload: tuple):
    """Worker entry point: simulate one chunk of rep indices.

    Receives only picklable data and resolves the simulation context
    locally (through the per-process context cache) — platform presets,
    workloads and placements are pure functions of the spec, so workers
    reconstruct the exact objects the parent would have used.  Any
    escaping exception is wrapped in a :class:`RepExecutionError`
    naming the spec, the chunk's rep indices, and the worker pid, so
    pool failures are attributable.

    The optional 7th payload element is the telemetry context
    ``{"parent": span_id}``: when present, the worker buffers its spans
    and counter deltas during the chunk and flushes them back through
    the return channel as ``(results, blob)`` instead of a bare result
    list (pre-telemetry 6-tuples still work — tests build them).  The
    optional 8th element is a shm block descriptor: bulk outputs are
    then written in place and only a small marker dict is returned.
    The optional 9th element is a parent-chosen trace-segment name:
    full ``RunResult`` payloads (``need_runs``) then ride shared
    memory too, as ``runs`` in the marker.
    """
    spec, noise, indices, need_runs, policy, base_attempt = payload[:6]
    telem = payload[6] if len(payload) > 6 else None
    shm_desc = payload[7] if len(payload) > 7 else None
    trace_name = payload[8] if len(payload) > 8 else None
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
            "chunk",
            spec=spec.label(),
            reps=len(indices),
            transport="shm" if shm_desc is not None else "pickle",
        ) if (token is not None) else _nullcontext():
            results = DEFAULT_RUNNER.run(
                spec, noise, indices, need_runs, policy, base_attempt
            )
        if shm_desc is not None and (trace_name is not None or not need_runs):
            out = _write_chunk_to_shm(shm_desc, results)
            if trace_name is not None and need_runs:
                out["runs"] = _write_runs_to_shm(trace_name, results)
        else:
            out = results
        if token is not None:
            blob = _telemetry.worker_capture_end(token)
            token = None
            return out, blob
        return out
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


class _nullcontext:
    """Minimal inline ``contextlib.nullcontext`` (kwarg-free, reusable)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _split_chunk_result(chunk_result) -> tuple:
    """Normalize a worker return: ``(results_or_marker, blob_or_None)``.

    The first element is a ``RepResult`` list (pickle transport) or a
    shm marker dict (``{"shm": True, ...}``) whose bulk data lives in
    the dispatch's shared-memory block.
    """
    if (
        isinstance(chunk_result, tuple)
        and len(chunk_result) == 2
        and isinstance(chunk_result[0], (list, dict))
        and isinstance(chunk_result[1], dict)
    ):
        return chunk_result
    return chunk_result, None


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class Executor(ABC):
    """Strategy interface: iterate rep outcomes in index order."""

    #: worker count (1 for the serial backend)
    jobs: int = 1

    def run_reps(
        self,
        spec: "ExperimentSpec",
        noise: Optional["NoiseStack"],
        reps: int,
        need_runs: bool = False,
        policy: Optional[FaultPolicy] = None,
    ) -> Iterator[RepResult]:
        """Yield one :class:`RepResult` per rep, in ascending index order.

        ``need_runs`` asks for the full :class:`RunResult` payload
        (traces included) on every item — required by ``on_run``
        consumers such as trace collection.  ``policy`` governs
        containment of failing reps (default: fail fast).  Equivalent
        to ``run_rep_range(spec, noise, range(reps), ...)``.
        """
        return self.run_rep_range(spec, noise, range(reps), need_runs=need_runs, policy=policy)

    @abstractmethod
    def run_rep_range(
        self,
        spec: "ExperimentSpec",
        noise: Optional["NoiseStack"],
        indices: range,
        need_runs: bool = False,
        policy: Optional[FaultPolicy] = None,
    ) -> Iterator[RepResult]:
        """Yield :class:`RepResult` for each rep index in ``indices``.

        ``indices`` must be a step-1 range; results arrive in index
        order and are bit-identical at any backend/worker count.  The
        adaptive-rep loop uses this to dispatch incremental batches
        (``range(n, n+batch)``) without re-running earlier reps.
        """

    def stats(self) -> dict:
        """Fault/recovery counters (empty for backends without any)."""
        return {}

    def close(self, force: bool = False) -> None:
        """Release backend resources (no-op for the serial backend)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process rep loop; ``on_run`` consumers observe runs live."""

    jobs = 1

    # class-level default so lightweight subclasses that skip __init__
    # (test doubles) still account correctly — the counter group is
    # created lazily on first use in that case
    _counters = None

    def __init__(self) -> None:
        self._counters = _telemetry.new_group("executor")

    def _group(self) -> "_telemetry.CounterGroup":
        group = self._counters
        if group is None:
            group = self._counters = _telemetry.new_group("executor")
        return group

    def stats(self) -> dict:
        """``rep_retries`` / ``rep_failures`` observed by this instance.

        A thin view over the telemetry counter registry — the shape is
        unchanged from the pre-telemetry ad-hoc dict.
        """
        group = self._counters
        if group is None:
            return {"rep_retries": 0, "rep_failures": 0}
        return {
            "rep_retries": int(group.get("rep_retries")),
            "rep_failures": int(group.get("rep_failures")),
        }

    def run_rep_range(self, spec, noise, indices, need_runs=False, policy=None):
        policy = policy if policy is not None else DEFAULT_POLICY
        group = self._group()
        context = _resolved_context(spec)
        for i in indices:
            # The serial backend always has the full result in hand;
            # passing it through costs nothing regardless of need_runs.
            rep = _run_one_rep(context, spec, noise, i, True, policy)
            if rep.attempts > 1:
                group.inc("rep_retries", rep.attempts - 1)
            if rep.error is not None:
                group.inc("rep_failures")
            yield rep

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Process-pool backend dispatching chunked rep indices.

    The pool is created lazily and kept alive across experiments (a
    campaign issues thousands of ``run_reps`` calls), and is safe to
    share between threads — the campaign runners fan independent table
    cells through it concurrently.  Results are yielded in rep order,
    so ``on_run`` consumers degrade to *ordered post-hoc delivery*
    rather than live streaming.

    Bulk results travel over shared memory by default (see the module
    docstring); ``transport="pickle"`` or ``REPRO_SHM=0`` restores the
    classic pickled lists.

    Failure containment: chunks are dispatched as individual futures.
    A broken pool (worker death) is rebuilt and only unfinished chunks
    are re-dispatched; a chunk that exceeds its policy deadline has its
    workers killed and is re-dispatched likewise.  After
    ``max_pool_breaks`` *consecutive* breakages the executor degrades
    to in-process serial execution (the pool infrastructure itself is
    deemed unhealthy).  All of it is counted in :meth:`stats`.
    """

    #: consecutive pool breakages tolerated before degrading to serial
    max_pool_breaks: int = 3

    def __init__(
        self,
        jobs: int,
        chunk_size: Optional[int] = None,
        transport: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.chunk_size = resolve_chunk_size(chunk_size)
        self.transport = resolve_transport(transport)
        self._pool = None
        self._lock = threading.Lock()
        self._shared = False
        self._degraded = False
        self._consecutive_breaks = 0
        #: recovery counters, kept in the telemetry registry (this is
        #: the registry entry ``stats()`` is a thin view over)
        self._counters = _telemetry.new_group("executor")

    #: the keys stats() has always exposed, in their historical order,
    #: plus the transport counters added with the shm path
    _STAT_KEYS = (
        "pool_rebuilds",
        "chunk_timeouts",
        "chunk_redispatches",
        "rep_retries",
        "rep_failures",
        "shm_chunks",
        "pickle_chunks",
        "shm_trace_chunks",
    )

    def stats(self) -> dict:
        """Recovery counters plus the current ``degraded`` flag.

        The counts live in the telemetry counter registry; this view
        preserves the pre-telemetry return shape (extended by the
        ``shm_chunks`` / ``pickle_chunks`` transport counters).
        """
        counts = self._counters.as_dict()
        out = {key: int(counts.get(key, 0)) for key in self._STAT_KEYS}
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

    def _note_pool_break(self, pool) -> None:
        """Account one pool breakage and retire the broken pool.

        Idempotent per pool object so concurrent threads observing the
        same breakage count it once.
        """
        with self._lock:
            if pool is not self._pool:
                return  # another thread already retired it
            self._pool = None
            self._counters.inc("pool_rebuilds")
            self._consecutive_breaks += 1
            if self._consecutive_breaks >= self.max_pool_breaks and not self._degraded:
                self._degraded = True
                _log.error(
                    "process pool broke %d consecutive times; degrading to "
                    "serial in-process execution",
                    self._consecutive_breaks,
                )
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    def _kill_pool(self, pool) -> None:
        """Forcibly terminate a pool whose workers are hung."""
        with self._lock:
            if pool is self._pool:
                self._pool = None
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best-effort teardown
            pass

    def _note_healthy_round(self) -> None:
        with self._lock:
            self._consecutive_breaks = 0

    def _account(self, rep: RepResult) -> None:
        if rep.attempts > 1 or rep.error is not None:
            self._counters.inc("rep_retries", rep.attempts - 1)
            if rep.error is not None:
                self._counters.inc("rep_failures")

    def _terminal_chunk(
        self, spec, chunk: range, policy: FaultPolicy, reason: str
    ) -> list[RepResult]:
        """Resolve a chunk that exhausted its dispatch budget."""
        message = (
            f"chunk reps {list(chunk)} of {spec.label()} {reason} after "
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

    def _make_block(self, spec, indices: range) -> Optional[_ShmResultBlock]:
        """Allocate the dispatch's shm block (None → pickle transport)."""
        if self.transport == "pickle" or not _shm_available():
            return None
        try:
            return _ShmResultBlock(indices, _anomaly_code_table(_resolved_context(spec)))
        except Exception as exc:  # pragma: no cover - e.g. /dev/shm full
            _log.warning(
                "shared-memory allocation failed (%s: %s); falling back to "
                "pickle transport",
                type(exc).__name__,
                exc,
            )
            return None

    # ------------------------------------------------------------------
    def run_rep_range(self, spec, noise, indices, need_runs=False, policy=None):
        policy = policy if policy is not None else DEFAULT_POLICY
        if len(indices) <= 1 or self.jobs <= 1 or self._degraded:
            # Not worth a pool round-trip (or the pool infrastructure is
            # unhealthy); the serial path is bit-identical.
            yield from self._serial_remainder(spec, noise, indices, need_runs, policy)
            return
        chunks = chunk_range(indices, self.jobs, self.chunk_size)
        block = self._make_block(spec, indices)
        trace_segments: set[str] = set()
        try:
            yield from self._run_chunks(
                spec, noise, chunks, need_runs, policy, block, trace_segments
            )
        finally:
            # The single owner-side unlink: reached on normal completion,
            # chunk failure, pool rebuild, hung-chunk kill, and caller
            # abandonment (generator close) alike.  Trace segments were
            # *named* by the parent before dispatch, so segments whose
            # worker died mid-write (or whose chunk was re-dispatched)
            # are unlinked here too.
            if block is not None:
                block.close()
            for name in trace_segments:
                _unlink_shm(name)

    def _run_chunks(self, spec, noise, chunks, need_runs, policy, block, trace_segments):
        shm_desc = block.descriptor() if block is not None else None
        dispatches = {cid: 0 for cid in range(len(chunks))}
        done: set[int] = set()
        while len(done) < len(chunks):
            if self._degraded:
                for cid in range(len(chunks)):
                    if cid in done:
                        continue
                    yield from self._serial_remainder(
                        spec, noise, chunks[cid], need_runs, policy, dispatches[cid]
                    )
                    done.add(cid)
                return
            pending = [cid for cid in range(len(chunks)) if cid not in done]
            pool = self._ensure_pool()
            # Telemetry context rides in the payload so worker spans
            # parent to the dispatching span; None keeps the disabled
            # path allocation-free in the workers.
            telem = (
                {"parent": _telemetry.current_span_id()} if _telemetry.enabled() else None
            )
            def _payload(cid):
                trace_name = None
                if block is not None and need_runs:
                    # Parent-chosen, dispatch-unique name: a re-dispatch
                    # gets a fresh segment, and every name ever handed
                    # out is registered for the owner-side unlink.
                    trace_name = f"{block.name}t{cid}d{dispatches[cid]}"
                    trace_segments.add(trace_name)
                return (
                    spec,
                    noise,
                    chunks[cid],
                    need_runs,
                    policy,
                    dispatches[cid],
                    telem,
                    shm_desc,
                    trace_name,
                )

            try:
                futures = {
                    cid: pool.submit(_run_rep_chunk, _payload(cid)) for cid in pending
                }
            except (BrokenProcessPool, RuntimeError):
                self._note_pool_break(pool)
                for cid in pending:
                    dispatches[cid] += 1
                    self._counters.inc("chunk_redispatches")
                continue
            broke = False
            # In-order consumption streams completed chunks to the
            # caller while later chunks are still running (rep order is
            # chunk order).
            for cid in pending:
                deadline = policy.chunk_deadline(len(chunks[cid]))
                try:
                    chunk_result = futures[cid].result(timeout=deadline)
                except BrokenProcessPool:
                    _log.warning(
                        "process pool broke while running chunk reps %s of %s; "
                        "rebuilding and re-dispatching unfinished chunks",
                        list(chunks[cid]),
                        spec.label(),
                    )
                    self._note_pool_break(pool)
                    broke = True
                    break
                except FuturesTimeout:
                    self._counters.inc("chunk_timeouts")
                    _log.warning(
                        "chunk reps %s of %s exceeded its %.1fs deadline; "
                        "killing workers and re-dispatching",
                        list(chunks[cid]),
                        spec.label(),
                        deadline,
                    )
                    self._kill_pool(pool)
                    if dispatches[cid] >= policy.retries:
                        for rep in self._terminal_chunk(
                            spec, chunks[cid], policy, "kept timing out"
                        ):
                            self._account(rep)
                            yield rep
                        done.add(cid)
                    broke = True
                    break
                else:
                    payload, blob = _split_chunk_result(chunk_result)
                    _telemetry.absorb_worker(blob)
                    if isinstance(payload, dict):
                        reps_list = block.extract(chunks[cid], payload)
                        self._counters.inc("shm_chunks")
                        runs = payload.get("runs")
                        if runs is not None:
                            _attach_runs_from_shm(runs, reps_list)
                            self._counters.inc("shm_trace_chunks")
                            # Segment fully consumed — release it now
                            # rather than at end-of-dispatch.
                            _unlink_shm(runs["name"])
                            trace_segments.discard(runs["name"])
                    else:
                        reps_list = payload
                        self._counters.inc("pickle_chunks")
                    for rep in reps_list:
                        self._account(rep)
                        yield rep
                    done.add(cid)
            if broke:
                for cid in pending:
                    if cid in done:
                        continue
                    futures[cid].cancel()
                    dispatches[cid] += 1
                    self._counters.inc("chunk_redispatches")
            else:
                self._note_healthy_round()

    def _serial_remainder(self, spec, noise, indices, need_runs, policy, base_attempt=0):
        """In-process execution of ``indices`` (degraded / tiny runs)."""
        context = _resolved_context(spec)
        for i in indices:
            rep = _run_one_rep(context, spec, noise, i, True, policy, base_attempt)
            self._account(rep)
            yield rep

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


@atexit.register
def _close_shared() -> None:
    # Shut pools down before interpreter teardown dismantles the
    # modules their weakref callbacks rely on.
    for ex in _shared.values():
        ex.close(force=True)
    _shared.clear()


def get_executor(
    jobs: Optional[int] = None, chunk_size: Optional[int] = None
) -> Executor:
    """Backend for ``jobs`` workers (``None`` → ``REPRO_JOBS``).

    Parallel backends are pooled per worker count and *shared*: their
    ``close()`` is a no-op (other callers may still hold the same
    instance), and the warm pool is torn down at interpreter exit.
    An explicit ``chunk_size`` is applied to the shared instance —
    chunking never affects results, only dispatch granularity.
    """
    n = resolve_jobs(jobs)
    if n <= 1:
        return SerialExecutor()
    ex = _shared.get(n)
    if ex is None:
        ex = _shared[n] = ParallelExecutor(n, chunk_size=chunk_size)
        ex._shared = True
    elif chunk_size is not None:
        ex.chunk_size = resolve_chunk_size(chunk_size)
    return ex
