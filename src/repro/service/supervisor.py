"""Supervisor: spawn, monitor, and heal a fleet of worker processes.

``repro-noise service start --workers N --supervise`` runs one
:class:`Supervisor` instead of an in-process worker loop: it spawns
``N`` child worker processes (each a plain ``repro-noise service
start``), watches them, and turns the service's *fail-open* failure
modes into *self-healing* ones:

* **Observed deaths.**  When a child exits abnormally the supervisor
  calls :meth:`~repro.service.queue.JobQueue.report_worker_death`
  immediately — the corpse's leases are released (and its death
  recorded, feeding poison detection) without waiting out the lease
  expiry, and its registry row flips to ``dead`` so ``service status``
  stops showing it as active.

* **Restarts with seeded backoff.**  A crashed slot is restarted after
  an exponential backoff drawn from a ``random.Random`` seeded per
  slot, so a supervised fleet's restart schedule is reproducible for a
  given seed.  Each incarnation gets a fresh worker id
  (``{prefix}-w{slot}-r{restart}``): *distinct* ids per restart are
  load-bearing — they are what lets the queue's poison detector count
  how many different workers one job has killed.

* **Crash-loop detection.**  A slot that crashes
  :data:`CRASH_LOOP_THRESHOLD` times within :data:`CRASH_LOOP_WINDOW_S`
  is parked instead of restarted (a fleet-wide fault — bad binary, full
  disk — must not turn into a fork bomb).  The supervisor exits once
  every slot is parked or finished.

* **Graceful drain.**  On SIGTERM/SIGINT the supervisor forwards the
  signal: children stop leasing, finish their current job, release
  cleanly, and exit.  A second signal forwards again, tripping each
  worker's own fail-fast path (release the held lease now, exit); any
  child still alive after :data:`KILL_GRACE_S` is SIGKILLed — at which
  point its lease is released by ``report_worker_death`` like any
  other corpse.

The supervisor holds its own queue connection but never leases; all
its writes are registry/lease bookkeeping.  Like everything else in
the service, supervision affects *when and where* cells run, never
what they compute — a supervised, crash-riddled campaign renders
byte-identical to a clean in-process run.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import telemetry as _telemetry
from repro.service.queue import JobQueue

__all__ = ["Supervisor", "WorkerSlot"]

_log = logging.getLogger(__name__)

#: crashes within the window that park a slot instead of restarting it
CRASH_LOOP_THRESHOLD = 3
#: the sliding window for crash-loop detection
CRASH_LOOP_WINDOW_S = 60.0
#: seconds after the second drain signal before stragglers are SIGKILLed
KILL_GRACE_S = 10.0
#: first restart backoff; it doubles per restart up to the cap
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0
#: seconds between two looks at the children
POLL_S = 0.2


@dataclass
class WorkerSlot:
    """One supervised position in the fleet (survives its processes)."""

    index: int
    proc: Optional[subprocess.Popen] = None
    worker_id: str = ""
    restarts: int = 0
    #: monotonic timestamps of recent crashes (crash-loop window)
    crash_times: list = field(default_factory=list)
    #: a parked slot crashed into a loop and is not restarted
    parked: bool = False
    #: when set, the slot is sleeping out a restart backoff
    restart_at: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class Supervisor:
    """Spawn and monitor ``workers`` child worker processes.

    ``command_factory(worker_id) -> list[str]`` builds each child's
    argv; the default runs ``python -m repro service start`` against
    this supervisor's queue/store.  Tests inject trivial commands to
    exercise restart/backoff/crash-loop logic without the full stack.
    ``env`` (when given) replaces the inherited child environment —
    chaos directives travel to children through it, never through the
    supervisor's own process environment.  Timings are the module
    constants, read when used.
    """

    def __init__(
        self,
        queue: JobQueue,
        store_root: Optional[os.PathLike | str] = None,
        workers: int = 2,
        seed: int = 0,
        drain: bool = False,
        lease_s: Optional[float] = None,
        command_factory: Optional[Callable[[str], Sequence[str]]] = None,
        env: Optional[dict] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.queue = queue
        self.store_root = store_root
        self.id_prefix = f"sup{os.getpid()}"
        self.seed = seed
        self.drain = drain
        self.lease_s = lease_s
        self.command_factory = command_factory
        self.env = env
        self.slots = [WorkerSlot(index=i) for i in range(workers)]
        #: per-slot deterministic backoff jitter
        self._rngs = [random.Random(f"{seed}:{i}") for i in range(workers)]
        self._stop = threading.Event()
        self._drain_signals = 0
        # Per-instance (not the shared singleton): stats() reports this
        # supervisor's fleet, not every fleet the process ever ran.
        self._counters = _telemetry.new_group("service_supervisor")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        counts = self._counters.as_dict()
        return {
            key: int(counts.get(key, 0))
            for key in ("spawned", "restarts", "deaths_reported", "crash_loops")
        }

    def _worker_id(self, slot: WorkerSlot) -> str:
        return f"{self.id_prefix}-w{slot.index}-r{slot.restarts}"

    def _command(self, worker_id: str) -> list[str]:
        if self.command_factory is not None:
            return list(self.command_factory(worker_id))
        argv = [
            sys.executable,
            "-m",
            "repro",
            "service",
            "start",
            "--queue",
            str(self.queue.path),
            "--worker-id",
            worker_id,
        ]
        if self.store_root is not None:
            argv += ["--store", str(self.store_root)]
        if self.lease_s is not None:
            argv += ["--lease", str(self.lease_s)]
        if self.drain:
            argv += ["--drain"]
        return argv

    def _backoff(self, slot: WorkerSlot) -> float:
        """Seeded exponential backoff for this slot's next restart."""
        base = BACKOFF_BASE_S * (2 ** max(0, slot.restarts - 1))
        jitter = 0.5 + 0.5 * self._rngs[slot.index].random()
        return min(BACKOFF_CAP_S, base * jitter)

    # ------------------------------------------------------------------
    def _spawn(self, slot: WorkerSlot) -> None:
        worker_id = self._worker_id(slot)
        slot.worker_id = worker_id
        slot.restart_at = None
        slot.proc = subprocess.Popen(
            self._command(worker_id),
            env=self.env,
            start_new_session=False,
        )
        self._counters.inc("spawned")
        _log.info(
            "supervisor: spawned %s (pid %d, slot %d, restart %d)",
            worker_id,
            slot.proc.pid,
            slot.index,
            slot.restarts,
        )

    def _on_exit(self, slot: WorkerSlot, returncode: int, now: float) -> None:
        """A child exited: clean exits park the slot (drain mode done);
        crashes release leases, then restart or crash-loop-park."""
        pid = slot.proc.pid if slot.proc is not None else None
        slot.proc = None
        if returncode == 0:
            # Finished cleanly (drained, or graceful shutdown): the
            # worker completed/released its lease itself.
            slot.parked = True
            return
        _log.warning(
            "supervisor: %s (pid %s) died with code %s",
            slot.worker_id,
            pid,
            returncode,
        )
        released = self.queue.report_worker_death(
            slot.worker_id, pid=pid, detail=f"worker exited with code {returncode}"
        )
        self._counters.inc("deaths_reported")
        if released:
            _log.warning(
                "supervisor: released %d lease(s) held by %s: %s",
                len(released),
                slot.worker_id,
                ", ".join(released),
            )
        if self._stop.is_set():
            # Shutdown in progress: leases are released above, but no
            # replacement is spawned.
            slot.parked = True
            return
        slot.crash_times = [
            t for t in slot.crash_times if now - t <= CRASH_LOOP_WINDOW_S
        ]
        slot.crash_times.append(now)
        if len(slot.crash_times) >= CRASH_LOOP_THRESHOLD:
            slot.parked = True
            self._counters.inc("crash_loops")
            _log.error(
                "supervisor: slot %d crash-looped (%d crashes in %.0fs); parking it",
                slot.index,
                len(slot.crash_times),
                CRASH_LOOP_WINDOW_S,
            )
            return
        slot.restarts += 1
        backoff = self._backoff(slot)
        slot.restart_at = now + backoff
        self._counters.inc("restarts")
        _log.warning(
            "supervisor: restarting slot %d as %s in %.2fs",
            slot.index,
            self._worker_id(slot),
            backoff,
        )

    # ------------------------------------------------------------------
    def _signal_children(self, signum: int) -> None:
        for slot in self.slots:
            if slot.alive:
                try:
                    slot.proc.send_signal(signum)
                except OSError:  # pragma: no cover - exited under us
                    pass

    def install_signal_handlers(self) -> None:
        """Drain protocol: first SIGTERM/SIGINT forwards the drain
        request; the second trips the workers' fail-fast path and arms
        a SIGKILL deadline for stragglers."""
        def handler(signum, frame):
            self._drain_signals += 1
            self._stop.set()
            self._signal_children(signal.SIGTERM)
            if self._drain_signals == 1:
                _log.warning(
                    "supervisor: drain requested; workers finish their "
                    "current job (signal again to fail fast)"
                )
            else:
                _log.warning("supervisor: fail-fast requested")

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Supervise until every slot is parked/finished (or, in
        ``drain`` mode, until the fleet drains the queue).  Returns the
        number of abnormal child deaths observed."""
        deaths = 0
        for slot in self.slots:
            self._spawn(slot)
        kill_deadline: Optional[float] = None
        try:
            while True:
                now = time.monotonic()
                for slot in self.slots:
                    if slot.proc is not None:
                        rc = slot.proc.poll()
                        if rc is not None:
                            if rc != 0 and not self._stop.is_set():
                                deaths += 1
                            self._on_exit(slot, rc, now)
                    elif (
                        not slot.parked
                        and slot.restart_at is not None
                        and now >= slot.restart_at
                        and not self._stop.is_set()
                    ):
                        self._spawn(slot)
                stopping = self._stop.is_set()
                pending = any(
                    slot.proc is not None
                    or (
                        not slot.parked
                        and not stopping
                        and slot.restart_at is not None
                    )
                    for slot in self.slots
                )
                if not pending:
                    break
                if stopping:
                    if self._drain_signals >= 2 and kill_deadline is None:
                        kill_deadline = now + KILL_GRACE_S
                    if kill_deadline is not None and now >= kill_deadline:
                        for slot in self.slots:
                            if slot.alive:
                                _log.error(
                                    "supervisor: SIGKILLing straggler %s",
                                    slot.worker_id,
                                )
                                slot.proc.kill()
                time.sleep(POLL_S)
        finally:
            # Never leave children behind, whatever took us down.
            for slot in self.slots:
                if slot.alive:
                    slot.proc.kill()
                    slot.proc.wait()
                    self.queue.report_worker_death(
                        slot.worker_id,
                        pid=slot.proc.pid,
                        detail="killed by exiting supervisor",
                    )
        return deaths
