"""Per-layer instrumentation for the traced pass.

The traced pass measures each layer from outside the program, with
three instruments that the untimed code never sees:

* :class:`Profile` — ``cProfile`` self time aggregated by ``repro``
  module, plus exact call counts of named functions;
* :class:`Timers` — wall time of public methods, wrapped on their class
  for the duration of the pass and restored afterwards;
* :func:`telemetry_on` — the program's own telemetry switched on, to
  read the counter groups it already keeps (engine events, context
  cache) and the spans it already opens (pipeline stages).

:data:`LAYER_UNITS` names every per-layer metric; :meth:`Trace.assemble`
turns one pass's instruments into values for all of them.  A layer a
workload does not exercise reads 0, which is itself the prediction
(for example no executor dispatch on ``sim-minife``).
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import inspect
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Optional

from bench import SRC

#: service lifecycle event kinds, one count each
EVENT_KINDS = (
    "submit", "lease", "renew", "expire", "complete",
    "fail", "quarantine", "merge", "release", "retry",
)

#: every per-layer metric and its unit, in report order
LAYER_UNITS = {
    "sim.scheduler.self_s_per_rep": "s",
    "sim.scheduler.update_calls_per_rep": "count",
    "sim.scheduler.task_done_calls_per_rep": "count",
    "sim.scheduler.refresh_many_calls_per_rep": "count",
    "sim.engine.self_s_per_rep": "s",
    "sim.engine.events_per_rep": "count",
    "sim.engine.schedule_calls_per_rep": "count",
    "sim.engine.compactions_per_rep": "count",
    "sim.task.self_s_per_rep": "s",
    "runtimes.self_s_per_rep": "s",
    "runtimes.advance_calls_per_rep": "count",
    "sim.noise.self_s_per_rep": "s",
    "noise.self_s_per_rep": "s",
    "core.injector.self_s_per_rep": "s",
    "sim.tracer.self_s_per_rep": "s",
    "core.collect_s": "s",
    "core.configure_s": "s",
    "core.inject_s": "s",
    "core.collect_reps": "count",
    "core.config_events": "count",
    "core.profile.self_s": "s",
    "harness.context.builds": "count",
    "harness.context.hits": "count",
    "harness.context.resolve_ms": "ms",
    "harness.executor.dispatch_s_per_cell": "s",
    "harness.executor.chunks_per_cell": "count",
    "harness.executor.shm_share": "ratio",
    "harness.executor.worker_busy_frac": "ratio",
    "harness.executor.pool_start_s": "s",
    "harness.cache.store_ms": "ms",
    "harness.cache.load_ms": "ms",
    "harness.cache.key_ms": "ms",
    "harness.cache.entry_bytes": "bytes",
    "harness.cache.hits": "count",
    "harness.cache.misses": "count",
    "harness.cache.warm_cells_per_s": "cells/s",
    "service.queue.wait_ms_p50": "ms",
    "service.queue.submit_ms": "ms",
    "service.queue.lease_ms": "ms",
    "service.queue.complete_ms": "ms",
    "service.queue.busy_retries": "count",
    **{f"service.queue.events.{kind}": "count" for kind in EVENT_KINDS},
    "service.worker.notify_wakes": "count",
    "service.worker.idle_waits": "count",
    "service.worker.run_ms_p50": "ms",
    "service.notify.notifications_sent": "count",
    "service.store.publish_ms": "ms",
    "service.store.merge_ms": "ms",
    "service.store.lock_waits": "count",
    "service.store.chunk_merges": "count",
    "service.loadgen.lag_p99_ms": "ms",
    "host.calib_mops": "Mops/s",
    "host.nproc": "count",
    "trace.overhead_frac": "ratio",
}

#: metrics that are exact functions of the seed and the traced subset;
#: two runs of one commit must agree on them to the last digit
EXACT_LAYERS = (
    "sim.scheduler.update_calls_per_rep",
    "sim.scheduler.task_done_calls_per_rep",
    "sim.scheduler.refresh_many_calls_per_rep",
    "sim.engine.events_per_rep",
    "sim.engine.schedule_calls_per_rep",
    "sim.engine.compactions_per_rep",
    "runtimes.advance_calls_per_rep",
    "core.collect_reps",
    "core.config_events",
    "harness.executor.chunks_per_cell",
    "harness.executor.shm_share",
    *(f"service.queue.events.{kind}" for kind in EVENT_KINDS if kind != "renew"),
)

#: self time per rep, by ``repro`` module (a package name covers its modules)
_SELF_TIME = {
    "sim.scheduler.self_s_per_rep": "sim.scheduler",
    "sim.engine.self_s_per_rep": "sim.engine",
    "sim.task.self_s_per_rep": "sim.task",
    "runtimes.self_s_per_rep": "runtimes",
    "sim.noise.self_s_per_rep": "sim.noise",
    "noise.self_s_per_rep": "noise",
    "core.injector.self_s_per_rep": "core.injector",
    "sim.tracer.self_s_per_rep": "sim.tracer",
}

#: exact call counts per rep, by ``(module, function name)``
_CALLS = {
    "sim.scheduler.update_calls_per_rep": ("sim.scheduler", "_update"),
    "sim.scheduler.task_done_calls_per_rep": ("sim.scheduler", "_task_done"),
    "sim.scheduler.refresh_many_calls_per_rep": ("sim.scheduler", "refresh_many"),
    "sim.engine.schedule_calls_per_rep": ("sim.engine", "schedule"),
    "runtimes.advance_calls_per_rep": ("runtimes.base", "_advance"),
}


def module_of(filename: str) -> Optional[str]:
    """``<src>/repro/sim/scheduler.py`` → ``sim.scheduler`` (else None)."""
    try:
        rel = Path(filename).relative_to(SRC / "repro")
    except ValueError:
        return None
    if rel.suffix != ".py":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or "repro"


class Profile:
    """cProfile self time by module and call counts by function.

    Mergeable across processes through :meth:`to_dict` /
    :meth:`merge`, so service workers' profiles add into the main process's.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: ``"module:function"`` → ``[calls, cumulative seconds]``
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])

    @contextlib.contextmanager
    def record(self):
        """Profile the calling thread for the duration of the block."""
        prof = cProfile.Profile()
        prof.enable()
        try:
            yield self
        finally:
            prof.disable()
            self._add(pstats.Stats(prof).stats)

    def _add(self, stats: dict) -> None:
        for (filename, _line, func), (_cc, nc, tt, ct, _callers) in stats.items():
            module = module_of(filename)
            if module is None:
                continue
            self.self_s[module] += tt
            entry = self.calls[f"{module}:{func}"]
            entry[0] += nc
            entry[1] += ct

    def self_time(self, prefix: str) -> float:
        """Self seconds of ``prefix`` and every module below it."""
        return sum(
            s for mod, s in self.self_s.items()
            if mod == prefix or mod.startswith(prefix + ".")
        )

    def call_count(self, module: str, func: str) -> int:
        return self.calls.get(f"{module}:{func}", (0, 0.0))[0]

    def ms_per_call(self, module: str, func: str) -> float:
        calls, cum = self.calls.get(f"{module}:{func}", (0, 0.0))
        return 1e3 * cum / calls if calls else 0.0

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": {k: list(v) for k, v in self.calls.items()}}

    def merge(self, data: dict) -> None:
        for mod, s in data["self_s"].items():
            self.self_s[mod] += s
        for key, (calls, cum) in data["calls"].items():
            entry = self.calls[key]
            entry[0] += calls
            entry[1] += cum


class Timers:
    """Wall time of wrapped methods, collected by label."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)

    @contextlib.contextmanager
    def wrap(self, owner: type, attr: str):
        """Time every call of ``owner.attr`` while the block runs, under
        the label ``"Owner.attr"``.

        Generator methods are timed from the first ``next()`` to
        exhaustion.  The original attribute is restored on exit.
        """
        original = owner.__dict__[attr]
        samples = self.samples[f"{owner.__name__}.{attr}"]
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                yield from original(*args, **kwargs)
                samples.append(time.perf_counter() - t0)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    samples.append(time.perf_counter() - t0)
        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def mean_ms(self, *labels: str) -> float:
        values = [v for label in labels for v in self.samples.get(label, ())]
        return 1e3 * sum(values) / len(values) if values else 0.0

    def merge(self, samples: dict) -> None:
        for label, values in samples.items():
            self.samples[label].extend(values)


@contextlib.contextmanager
def cache_timers(timers: Timers):
    """Time the result cache's key, load and publish steps."""
    from repro.harness.cache import ResultCache

    with contextlib.ExitStack() as stack:
        for attr in ("resolve_cell", "load_entry", "store_entry"):
            stack.enter_context(timers.wrap(ResultCache, attr))
        yield


@contextlib.contextmanager
def service_timers(timers: Timers):
    """Time the queue transactions and store publishes of the service."""
    from repro.service.queue import JobQueue
    from repro.service.store import SharedResultStore

    with contextlib.ExitStack() as stack:
        for attr in ("submit", "submit_sharded", "lease", "complete", "complete_chunk"):
            stack.enter_context(timers.wrap(JobQueue, attr))
        for attr in ("store_chunk", "merge_chunks"):
            stack.enter_context(timers.wrap(SharedResultStore, attr))
        yield


@contextlib.contextmanager
def telemetry_on():
    """Switch the program's telemetry on; yield a dict that receives
    the counter deltas (``counters``) and recorded spans (``spans``)."""
    from repro import telemetry

    was = telemetry.enabled()
    telemetry.configure(enabled=True)
    telemetry.drain_events()
    before = telemetry.counters_snapshot()
    box: dict = {}
    try:
        yield box
    finally:
        box["counters"] = counter_delta(before, telemetry.counters_snapshot())
        box["spans"] = [e for e in telemetry.drain_events() if e.get("type") == "span"]
        telemetry.configure(enabled=was)


def counter_delta(before: dict, after: dict) -> dict:
    out: dict = {}
    for namespace, counts in after.items():
        base = before.get(namespace, {})
        for name, value in counts.items():
            if value != base.get(name, 0):
                out.setdefault(namespace, {})[name] = value - base.get(name, 0)
    return out


def add_counters(total: dict, more: dict) -> None:
    for namespace, counts in more.items():
        bucket = total.setdefault(namespace, {})
        for name, value in counts.items():
            bucket[name] = bucket.get(name, 0) + value


class Trace:
    """One traced pass: the instruments plus what the workload set."""

    def __init__(self) -> None:
        self.profile = Profile()
        self.timers = Timers()
        self.counters: dict = {}
        self.spans: list[dict] = []
        #: reps simulated in the traced subset, in every process
        self.reps = 0
        #: workload-specific layer values, by metric name
        self.values: dict[str, float] = {}

    @contextlib.contextmanager
    def record(self):
        """Profile, cache timers and telemetry in this process."""
        with telemetry_on() as box, cache_timers(self.timers), self.profile.record():
            yield
        add_counters(self.counters, box["counters"])
        self.spans.extend(box["spans"])

    def assemble(self) -> dict[str, float]:
        """A value for every name in :data:`LAYER_UNITS`."""
        out = dict.fromkeys(LAYER_UNITS, 0.0)
        reps = max(1, self.reps)
        for name, prefix in _SELF_TIME.items():
            out[name] = self.profile.self_time(prefix) / reps
        for name, (module, func) in _CALLS.items():
            out[name] = self.profile.call_count(module, func) / reps
        engine = self.counters.get("engine", {})
        out["sim.engine.events_per_rep"] = engine.get("events_executed", 0) / reps
        out["sim.engine.compactions_per_rep"] = engine.get("compactions", 0) / reps
        context = self.counters.get("context", {})
        out["harness.context.builds"] = context.get("builds", 0)
        out["harness.context.hits"] = context.get("hits", 0)
        out["harness.context.resolve_ms"] = self.profile.ms_per_call(
            "harness.experiment", "resolve_context"
        )
        cache = self.counters.get("cache", {})
        out["harness.cache.hits"] = cache.get("hits", 0)
        out["harness.cache.misses"] = cache.get("misses", 0)
        out["harness.cache.key_ms"] = self.timers.mean_ms("ResultCache.resolve_cell")
        out["harness.cache.load_ms"] = self.timers.mean_ms("ResultCache.load_entry")
        out["harness.cache.store_ms"] = self.timers.mean_ms("ResultCache.store_entry")
        out["service.queue.submit_ms"] = self.timers.mean_ms("JobQueue.submit")
        out["service.queue.lease_ms"] = self.timers.mean_ms("JobQueue.lease")
        out["service.queue.complete_ms"] = self.timers.mean_ms(
            "JobQueue.complete", "JobQueue.complete_chunk"
        )
        out["service.queue.busy_retries"] = self.counters.get("service_queue", {}).get(
            "busy_retries", 0
        )
        worker = self.counters.get("service_worker", {})
        out["service.worker.notify_wakes"] = worker.get("notify_wakes", 0)
        out["service.worker.idle_waits"] = worker.get("idle_waits", 0)
        out["service.notify.notifications_sent"] = self.counters.get(
            "service_notify", {}
        ).get("notifications_sent", 0)
        out["service.store.merge_ms"] = self.timers.mean_ms("SharedResultStore.merge_chunks")
        out["service.store.lock_waits"] = cache.get("lock_waits", 0)
        out["service.store.chunk_merges"] = cache.get("chunk_merges", 0)
        for name, value in self.values.items():
            if name not in out:
                raise KeyError(f"unknown layer metric {name}")
            out[name] = value
        return {name: float(value) for name, value in out.items()}
