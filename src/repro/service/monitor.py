"""Read-only views of the campaign service, built on recorded data.

Three views over one queue database, none of which writes a single row:

* :func:`campaign_progress` — done/total cells and an ETA extrapolated
  from the trailing completion rate in the events table (``service
  status --json`` reports it under ``progress``).

* :func:`stitch_trace` — joins per-worker telemetry JSONL buffers with
  the lifecycle events into one Chrome/Perfetto trace: each job's wall
  time is attributed to ``queue-wait`` / ``run`` / ``merge`` /
  ``retry-wait`` phases.  Run phases land on the owning worker's pid
  track (lifecycle ``mono`` stamps and telemetry spans share the
  system-wide ``time.perf_counter()`` clock), wait phases on a
  synthetic pid-0 "campaign queue" track with one row per job.

* :func:`render_top` — the ``repro-noise service top`` dashboard text:
  workers (state, heartbeat age, current lease, reps/sec), queue depth
  by status, DLQ size, campaign progress/ETA.

Each view only reads, so result bytes are identical whether or not
anything is watching.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.service.queue import _STATUSES, JobQueue
from repro.service.store import SharedResultStore

__all__ = [
    "campaign_progress",
    "stitch_trace",
    "render_top",
]

#: trailing window the completion-rate / ETA estimate is fitted over
RATE_WINDOW_S = 600.0


# ----------------------------------------------------------------------
# campaign progress / ETA
# ----------------------------------------------------------------------
def campaign_progress(queue: JobQueue) -> dict:
    """Completed-cell progress and an ETA from the trailing rate.

    Counts *cells* (chunk sub-jobs fold into their parent): ``done``
    over ``total``, with the completion rate fitted over the last
    :data:`RATE_WINDOW_S` of ``complete``/``merge`` events.  ``eta_s`` is
    ``None`` while there is no rate to extrapolate from (nothing
    finished recently, or nothing pending).
    """
    cells = queue.counts(cells_only=True)
    total = sum(cells.values())
    done = cells["done"]
    pending = cells["queued"] + cells["leased"] + cells["sharded"]
    now = time.time()
    finishes = [
        e["at"]
        for e in queue.events()
        if e["event"] in ("complete", "merge")
        and ":" not in e["key"]  # chunk completions are not cell finishes
        and now - e["at"] <= RATE_WINDOW_S
    ]
    rate = 0.0
    if finishes:
        span = max(now - min(finishes), 1.0)
        rate = len(finishes) / span
    eta_s = pending / rate if rate > 0 and pending else None
    return {
        "cells_total": total,
        "cells_done": done,
        "cells_pending": pending,
        "cells_failed": cells["failed"] + cells["quarantined"],
        "percent": 100.0 * done / total if total else 0.0,
        "rate_per_s": rate,
        "eta_s": eta_s,
    }


# ----------------------------------------------------------------------
# trace stitching
# ----------------------------------------------------------------------
def stitch_trace(
    queue: JobQueue,
    telemetry_paths: Sequence[os.PathLike | str] = (),
    keys: Optional[Sequence[str]] = None,
) -> dict:
    """One Chrome/Perfetto trace for a whole campaign.

    Joins the queue's lifecycle events with any number of per-worker
    telemetry logs (``events.jsonl`` files or the directories that
    contain them).  Each job contributes phase spans —

    * ``queue-wait`` — submit → first lease,
    * ``run`` — each lease → complete/fail/expire/release, attributed
      to the owning worker's pid so it lines up with that worker's own
      ``service_job``/``rep`` spans,
    * ``retry-wait`` — a requeue (failure, expiry, release, DLQ retry)
      → the next lease,
    * ``merge`` — last chunk completion → parent finalize,

    — with wait phases on a synthetic pid-0 "campaign queue" track,
    one tid row per job.  Lifecycle ``mono`` stamps and telemetry span
    timestamps share the ``time.perf_counter()`` clock, so the tracks
    align without any offset bookkeeping.  ``keys`` restricts to the
    listed cells (their chunk sub-jobs ride along).
    """
    from repro.telemetry.exporters import chrome_trace, load_events_jsonl

    span_events: list[dict] = []
    for raw in telemetry_paths:
        path = Path(raw)
        if path.is_dir():
            path = path / "events.jsonl"
        if path.exists():
            events, _counters = load_events_jsonl(path)
            span_events.extend(events)

    lifecycle = queue.events()
    if keys is not None:
        wanted = set(keys)
        lifecycle = [
            e for e in lifecycle if e["key"].split(":", 1)[0] in wanted
        ]
    worker_pids = {w.id: w.pid for w in queue.workers()}

    tids: dict[str, int] = {}

    def tid_for(key: str) -> int:
        return tids.setdefault(key, len(tids) + 1)

    phase_spans: list[dict] = []
    seq = 0

    def emit(name, start, end, key, pid=0, worker=None, error=None):
        nonlocal seq
        seq += 1
        span = {
            "type": "span",
            "name": name,
            "ts": start,
            "dur": max(0.0, end - start),
            "pid": pid if pid is not None else 0,
            "tid": tid_for(key),
            "id": f"stitch-{seq}",
            "args": {"key": key, "phase": name},
        }
        if worker is not None:
            span["args"]["worker"] = worker
        if error is not None:
            span["error"] = error
        phase_spans.append(span)

    # per-key wait/lease state machines, driven in commit order
    pending: dict[str, tuple[float, str]] = {}  # key -> (since, wait kind)
    leases: dict[str, tuple[float, Optional[str]]] = {}  # key -> (start, worker)
    last_chunk_done: dict[str, float] = {}  # parent cell -> last complete mono

    for e in lifecycle:
        key, event, mono, worker = e["key"], e["event"], e["mono"], e["worker"]
        cell = key.split(":", 1)[0]
        if event == "submit":
            pending[key] = (mono, "queue-wait")
        elif event == "lease":
            since = pending.pop(key, None)
            if since is not None:
                emit(since[1], since[0], mono, key)
            leases[key] = (mono, worker)
        elif event == "complete":
            lease = leases.pop(key, None)
            if lease is not None:
                emit("run", lease[0], mono, key,
                     pid=worker_pids.get(lease[1]), worker=lease[1])
            if key != cell:
                last_chunk_done[cell] = mono
        elif event in ("expire", "release"):
            lease = leases.pop(key, None)
            if lease is not None:
                emit(
                    "run", lease[0], mono, key,
                    pid=worker_pids.get(lease[1]), worker=lease[1],
                    error="lease expired" if event == "expire" else None,
                )
            pending[key] = (mono, "retry-wait")
        elif event in ("fail", "quarantine"):
            lease = leases.pop(key, None)
            if lease is not None:
                emit(
                    "run", lease[0], mono, key,
                    pid=worker_pids.get(lease[1]), worker=lease[1],
                    error=(e["detail"] or event),
                )
            if event == "fail" and (e["detail"] or "").startswith("retryable"):
                pending[key] = (mono, "retry-wait")
            else:
                pending.pop(key, None)
        elif event == "retry":
            pending[key] = (mono, "retry-wait")
        elif event == "merge":
            emit("merge", last_chunk_done.get(key, mono), mono, key)

    trace = chrome_trace(span_events + phase_spans)
    for entry in trace["traceEvents"]:
        if entry.get("ph") == "M" and entry.get("pid") == 0:
            entry["args"]["name"] = "campaign queue"
    trace["traceEvents"].extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": f"job {key[:16]}"},
        }
        for key, tid in tids.items()
    )
    return trace


# ----------------------------------------------------------------------
# live dashboard
# ----------------------------------------------------------------------
def _fmt_eta(eta_s: Optional[float]) -> str:
    if eta_s is None:
        return "-"
    eta_s = int(round(eta_s))
    if eta_s >= 3600:
        return f"{eta_s // 3600}h{(eta_s % 3600) // 60:02d}m"
    return f"{eta_s // 60}m{eta_s % 60:02d}s"


def render_top(queue: JobQueue, store: Optional[SharedResultStore] = None) -> str:
    """One frame of the ``service top`` dashboard as plain text."""
    from repro.harness.report import TableBuilder

    now = time.time()
    counts = queue.counts()
    progress = campaign_progress(queue)
    parts = [
        f"repro-noise service top — {queue.path} — "
        + time.strftime("%H:%M:%S", time.localtime(now)),
        "jobs: " + ", ".join(f"{counts[s]} {s}" for s in _STATUSES),
        (
            f"campaign: {progress['cells_done']}/{progress['cells_total']} cells "
            f"({progress['percent']:.0f}%), "
            f"{progress['rate_per_s'] * 60:.1f} cells/min, "
            f"ETA {_fmt_eta(progress['eta_s'])}"
        ),
    ]
    workers = queue.workers()
    if workers:
        tb = TableBuilder(
            ["worker", "pid", "state", "hb age", "current lease", "jobs", "reps/s"]
        )
        for info in workers:
            uptime = max(now - info.started_at, 1e-9)
            rate = info.reps_done / uptime if info.reps_done else 0.0
            tb.add_row(
                info.id,
                str(info.pid or "-"),
                info.derived_state(now),
                f"{info.heartbeat_age(now):.1f}s",
                (info.current_key or "-")[:20],
                str(info.jobs_done),
                f"{rate:.1f}",
            )
        parts.append(tb.render())
    else:
        parts.append("(no workers registered)")
    if counts["quarantined"]:
        parts.append(f"dlq: {counts['quarantined']} quarantined job(s)")
    if store is not None:
        st = store.stats()
        parts.append(
            f"store: {st['hits']} hits, {st['shared_hits']} shared, "
            f"{st['chunk_merges']} merges, "
            f"{st['integrity_quarantined']} integrity quarantines"
        )
    return "\n".join(parts)
