"""Telemetry core: spans, counters, and worker buffers.

The harness's instrumentation layer.  Three primitives:

* **Spans** — :func:`span` context managers with a monotonic start
  time, duration, parent linkage (thread-local stack), and pid/thread
  identity.  Spans nest: ``campaign → cell → experiment → chunk →
  rep → retry`` is the canonical hierarchy the summarizer renders.
* **Counters** — named monotonic counts grouped by namespace.
  Per-instance groups (:func:`new_group`) back the executors' and
  cache's existing ``stats()`` dicts; shared groups
  (:func:`get_group`) collect process-wide counts (engine events,
  chaos injections).  :func:`counters_snapshot` aggregates both.
* **Worker buffers** — pool workers record spans/counters locally and
  flush them through the existing chunk-result channel
  (:func:`worker_capture_begin` / :func:`worker_capture_end` on the
  worker side, :func:`absorb_worker` on the parent side).

Zero-overhead-when-disabled contract
------------------------------------
Collection is governed by a module-level flag (``REPRO_TELEMETRY`` or
:func:`configure`).  When disabled, :func:`span` returns a shared
no-op context manager and records nothing; hot call sites additionally
guard on :func:`enabled` so span attributes are never even built.
Counter groups stay live regardless — they replace the ad-hoc dicts
behind ``Executor.stats()`` / ``ResultCache.stats()``, whose behaviour
must not depend on telemetry — but those increments happen on recovery
and cache paths, never inside the simulator event loop.

Telemetry never touches experiment RNG streams: spans only read the
monotonic clock, so results are bit-identical with telemetry on or off
(the golden-equivalence suite enforces it under ``REPRO_TELEMETRY=1``).

Clocks and identity
-------------------
Span timestamps are ``time.perf_counter()`` values.  On Linux that is
``CLOCK_MONOTONIC``, which is system-wide, so spans recorded in forked
pool workers align with the parent's timeline; on platforms where the
clock is per-process the per-pid tracks are still internally ordered.
Span ids embed the recording pid, so ids from forked workers can never
collide with the parent's.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "enabled",
    "configure",
    "refresh_from_env",
    "telemetry_dir",
    "span",
    "Span",
    "current_span_id",
    "set_base_parent",
    "events_snapshot",
    "drain_events",
    "CounterGroup",
    "new_group",
    "get_group",
    "counters_snapshot",
    "set_counter_help",
    "counter_help",
    "worker_capture_begin",
    "worker_capture_end",
    "absorb_worker",
    "reset",
]

# ----------------------------------------------------------------------
# enablement
# ----------------------------------------------------------------------
_ENABLED: bool = False
_OUT_DIR: Optional[Path] = None


def _env_directive() -> tuple[bool, Optional[Path]]:
    """Parse ``REPRO_TELEMETRY``: unset/``0`` → off; ``1`` → on
    (in-memory only); anything else → on, value is the export dir."""
    raw = os.environ.get("REPRO_TELEMETRY", "").strip()
    if not raw or raw == "0":
        return False, None
    if raw == "1":
        return True, None
    return True, Path(raw)


def refresh_from_env() -> bool:
    """Re-read ``REPRO_TELEMETRY`` (spawned workers call this on import)."""
    global _ENABLED, _OUT_DIR
    _ENABLED, _OUT_DIR = _env_directive()
    return _ENABLED


def enabled() -> bool:
    """Whether span/event collection is active (one global load)."""
    return _ENABLED


def configure(enabled: bool = True, out_dir: Optional[Path] = None) -> None:
    """Programmatically enable/disable collection.

    ``out_dir`` sets the default export directory for
    :func:`repro.telemetry.exporters.export_all`.  This does **not**
    touch the environment; callers that spawn worker processes under a
    non-fork start method should also export ``REPRO_TELEMETRY`` so the
    children pick the flag up (the CLI does).
    """
    global _ENABLED, _OUT_DIR
    _ENABLED = bool(enabled)
    if out_dir is not None:
        _OUT_DIR = Path(out_dir)
    elif not enabled:
        _OUT_DIR = None


def telemetry_dir() -> Optional[Path]:
    """The configured export directory (``None`` = in-memory only)."""
    return _OUT_DIR


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
_id_lock = threading.Lock()
_id_seq = 0


def _new_span_id() -> str:
    """Process-unique span id; the pid prefix keeps forked workers'
    ids disjoint from the parent's."""
    global _id_seq
    with _id_lock:
        _id_seq += 1
        seq = _id_seq
    return f"{os.getpid()}-{seq}"


_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_span_id() -> Optional[str]:
    """Id of the innermost open span on this thread (or the thread's
    base parent — see :func:`set_base_parent`)."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    return getattr(_tls, "base", None)


def set_base_parent(parent: Optional[str]) -> None:
    """Adopt ``parent`` as this thread's root span parent.

    Used to keep linkage across execution boundaries that lose the
    thread-local stack: campaign cell threads and pool workers inherit
    the dispatching span's id this way.
    """
    _tls.base = parent


_events: list[dict] = []
_events_lock = threading.Lock()


def _record(event: dict) -> None:
    with _events_lock:
        _events.append(event)


def events_snapshot() -> list[dict]:
    """Copy of all recorded events (non-destructive)."""
    with _events_lock:
        return list(_events)


def drain_events() -> list[dict]:
    """Return and clear all recorded events."""
    with _events_lock:
        out = list(_events)
        _events.clear()
        return out


class _NullSpan:
    """Shared no-op span: the entire disabled-mode cost of ``with span()``."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """An open span; use via ``with span(name, **attrs):``."""

    __slots__ = ("name", "attrs", "id", "parent", "_t0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.id: Optional[str] = None
        self.parent: Optional[str] = None
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        self.parent = current_span_id()
        self.id = _new_span_id()
        _stack().append(self.id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        stack = _stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "ts": self._t0,
            "dur": dur,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "id": self.id,
            "parent": self.parent,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["args"] = self.attrs
        _record(event)
        return False


def span(name: str, **attrs: Any):
    """Open a span named ``name`` (no-op singleton when disabled).

    Hot call sites should guard on :func:`enabled` before building
    ``attrs`` — the keyword dict is constructed by the caller either
    way.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return Span(name, attrs)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class CounterGroup:
    """A namespaced set of monotonic counters (thread-safe).

    Per-instance groups give subsystems private counts that still
    surface in the global aggregate; they are registered weakly, so a
    discarded executor takes its counters with it.
    """

    __slots__ = ("namespace", "_counts", "_lock", "__weakref__")

    def __init__(self, namespace: str):
        self.namespace = namespace
        self._counts: dict[str, float] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n

    def set(self, name: str, value: float) -> None:
        """Gauge-style assignment."""
        with self._lock:
            self._counts[name] = value

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counts.get(name, default)

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterGroup({self.namespace!r}, {self.as_dict()!r})"


_groups: "weakref.WeakSet[CounterGroup]" = weakref.WeakSet()
_shared_groups: dict[str, CounterGroup] = {}
_groups_lock = threading.Lock()


def new_group(namespace: str) -> CounterGroup:
    """A fresh per-instance group under ``namespace`` (weakly tracked)."""
    group = CounterGroup(namespace)
    with _groups_lock:
        _groups.add(group)
    return group


def get_group(namespace: str) -> CounterGroup:
    """The process-wide shared group for ``namespace`` (created once)."""
    with _groups_lock:
        group = _shared_groups.get(namespace)
        if group is None:
            group = _shared_groups[namespace] = CounterGroup(namespace)
            _groups.add(group)
        return group


#: per-namespace HELP strings for the Prometheus exposition; populated
#: by the subsystems that own each namespace (anything unregistered
#: falls back to a generic line)
_counter_help: dict[str, str] = {}


def set_counter_help(namespace: str, text: str) -> None:
    """Register the ``# HELP`` line for a counter namespace."""
    with _groups_lock:
        _counter_help[namespace] = text


def counter_help(namespace: str) -> str:
    """The registered HELP text for ``namespace`` (generic fallback)."""
    with _groups_lock:
        return _counter_help.get(
            namespace, f"repro {namespace} counters, one series per counter label"
        )


def counters_snapshot() -> dict[str, dict[str, float]]:
    """Aggregate all live groups: ``{namespace: {name: total}}``.

    Sums across every group in a namespace, so five executors'
    ``rep_retries`` roll up into one series — exactly what the
    Prometheus snapshot wants.
    """
    with _groups_lock:
        groups = list(_groups)
    out: dict[str, dict[str, float]] = {}
    for group in groups:
        bucket = out.setdefault(group.namespace, {})
        for name, value in group.as_dict().items():
            bucket[name] = bucket.get(name, 0) + value
    return out


# ----------------------------------------------------------------------
# worker buffers
# ----------------------------------------------------------------------
def worker_capture_begin(parent: Optional[str] = None) -> tuple:
    """Start capturing this process's telemetry for one chunk.

    ``parent`` is the dispatching span's id from the parent process;
    spans recorded during the capture parent to it.  Returns an opaque
    token for :func:`worker_capture_end`.  Forked workers inherit the
    parent's event buffer and counter values; the token records both
    high-water marks so only *new* activity is flushed.  They also
    inherit the spans the forking thread had open, which the capture
    sets aside until its end: they would otherwise parent every chunk
    to whatever span was open when the pool forked.
    """
    set_base_parent(parent)
    stack = _stack()
    inherited = stack[:]
    stack.clear()
    with _events_lock:
        position = len(_events)
    return position, counters_snapshot(), inherited


def worker_capture_end(token: tuple) -> dict:
    """Finish a capture: pop the new events, diff the counters.

    Returns the picklable blob that rides back on the chunk result
    (``{"events": [...], "counters": {ns: {name: delta}}}``).
    """
    position, before, inherited = token
    _stack()[:] = inherited
    with _events_lock:
        events = _events[position:]
        del _events[position:]
    delta: dict[str, dict[str, float]] = {}
    for namespace, counts in counters_snapshot().items():
        base = before.get(namespace, {})
        for name, value in counts.items():
            diff = value - base.get(name, 0)
            if diff:
                delta.setdefault(namespace, {})[name] = diff
    set_base_parent(None)
    return {"events": events, "counters": delta}


def absorb_worker(blob: Optional[dict]) -> None:
    """Merge a worker's capture blob into this process's telemetry."""
    if not blob:
        return
    events = blob.get("events") or ()
    if events:
        with _events_lock:
            _events.extend(events)
    for namespace, counts in (blob.get("counters") or {}).items():
        group = get_group(namespace)
        for name, value in counts.items():
            group.inc(name, value)


# ----------------------------------------------------------------------
# test / lifecycle helpers
# ----------------------------------------------------------------------
def reset() -> None:
    """Clear recorded events and shared-group counters (test helper).

    Per-instance groups (executor/cache ``stats()`` backings) are left
    untouched — they belong to their owners.
    """
    with _events_lock:
        _events.clear()
    with _groups_lock:
        shared = list(_shared_groups.values())
    for group in shared:
        group.clear()


# one env read at import; spawned workers get their flag here
refresh_from_env()
