"""Fault containment for experiment execution.

Long campaigns (the paper's ~1000-rep trace collections and multi-cell
mitigation tables) must survive partial failure: a crashed worker, a
hung repetition, or a torn cache file should cost one retry — not the
whole run.  This module defines the policy and record types the rest of
the harness shares:

* :class:`FaultPolicy` — what to do when a repetition fails: per-rep
  timeout, bounded retries with exponential backoff (jitter drawn
  deterministically from the experiment's ``SeedSequence``, so recovery
  behaviour is as reproducible as the experiment itself), and a
  terminal ``on_failure`` action (``raise`` / ``skip`` / ``retry``).
* :class:`FailureRecord` — a structured, JSON-serialisable description
  of one failure (rep index, phase, exception class, traceback digest,
  attempt count, wall time) carried on :class:`~repro.harness.executor.
  RepResult` / :class:`~repro.harness.experiment.ResultSet` and written
  into quarantined partial-result envelopes.
* :class:`RepExecutionError` — the picklable exception that crosses the
  worker boundary naming the spec, the rep indices of the chunk, and
  the worker pid instead of a bare traceback.

Determinism contract: a retried repetition re-runs from its original
per-rep ``SeedSequence`` spawn key (the rep RNG is rebuilt from scratch
on every attempt), so a rep that succeeds on attempt *k* is bit-identical
to one that succeeded on attempt 0.  Only the backoff *delays* consume
randomness, and they draw from a dedicated spawn branch that never
touches the rep's own stream.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = [
    "FAILURE_ACTIONS",
    "FaultPolicy",
    "FailureRecord",
    "RepExecutionError",
    "RepTimeoutError",
    "rep_deadline",
    "atomic_write_text",
]

#: terminal actions a policy may take when a repetition keeps failing
FAILURE_ACTIONS = ("raise", "skip", "retry")

#: spawn-key tag separating backoff jitter from every other consumer of
#: the experiment's SeedSequence (rep streams use plain ``(index,)``)
_BACKOFF_SPAWN_TAG = 0xFA017


class RepTimeoutError(Exception):
    """A repetition exceeded its :attr:`FaultPolicy.timeout` budget."""


@dataclass(frozen=True)
class FailureRecord:
    """Structured description of one contained failure.

    ``phase`` names where the failure occurred (``rep`` for a single
    repetition, ``chunk`` for a whole dispatch chunk lost to a broken
    pool).  ``traceback_digest`` is a short sha256 of the formatted
    traceback — enough to correlate identical failures across reps
    without shipping kilobytes of text through result envelopes.
    """

    index: int
    phase: str
    error: str
    message: str
    traceback_digest: str
    attempts: int
    wall_time: float

    @classmethod
    def from_exception(
        cls,
        index: int,
        phase: str,
        exc: BaseException,
        attempts: int,
        wall_time: float,
    ) -> "FailureRecord":
        """Distil an exception (plus context) into a record."""
        tb = traceback.format_exc()
        return cls(
            index=index,
            phase=phase,
            error=type(exc).__name__,
            message=str(exc)[:500],
            traceback_digest=hashlib.sha256(tb.encode()).hexdigest()[:16],
            attempts=attempts,
            wall_time=float(wall_time),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_dict`)."""
        return {
            "index": self.index,
            "phase": self.phase,
            "error": self.error,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            index=int(data["index"]),
            phase=str(data["phase"]),
            error=str(data["error"]),
            message=str(data["message"]),
            traceback_digest=str(data["traceback_digest"]),
            attempts=int(data["attempts"]),
            wall_time=float(data["wall_time"]),
        )


class RepExecutionError(RuntimeError):
    """A repetition (or chunk) failed terminally under the fault policy.

    Raised instead of the worker's bare exception so the parent sees
    the spec label, the rep indices involved, and the worker pid.  The
    attached :class:`FailureRecord` survives pickling across the
    process boundary.
    """

    def __init__(self, message: str, record: Optional[FailureRecord] = None):
        super().__init__(message)
        self.record = record

    def __reduce__(self):
        return (type(self), (self.args[0], self.record))


@dataclass(frozen=True)
class FaultPolicy:
    """How the harness reacts when a repetition fails.

    ``on_failure`` selects the terminal action:

    * ``"raise"`` (default) — fail fast, no retries: exactly the
      pre-fault-tolerance behaviour.
    * ``"retry"`` — re-run the rep up to ``max_retries`` times (with
      exponential backoff and deterministic jitter); if it still fails,
      raise.
    * ``"skip"`` — retry like ``"retry"``, but when retries are
      exhausted record a :class:`FailureRecord`, mark the rep's time as
      NaN, and continue with the remaining reps (partial results).

    ``timeout`` bounds one repetition's wall time in seconds.  It is
    enforced with ``SIGALRM`` where that is possible (POSIX, main
    thread — which covers pool workers and plain serial runs); in other
    contexts the parallel executor's per-chunk deadline acts as the
    backstop for hung workers.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    on_failure: str = "raise"
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.on_failure not in FAILURE_ACTIONS:
            raise ValueError(
                f"on_failure must be one of {FAILURE_ACTIONS}, got {self.on_failure!r}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0 or self.backoff_max < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")

    # ------------------------------------------------------------------
    @property
    def retries(self) -> int:
        """Retries actually granted (``raise`` never retries)."""
        return 0 if self.on_failure == "raise" else self.max_retries

    def backoff_delay(self, seed: int, index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of rep ``index``.

        Exponential in the attempt number, jittered by a uniform factor
        in ``[0.5, 1.5)`` drawn from a dedicated spawn branch of the
        experiment's SeedSequence — deterministic per (seed, rep,
        attempt), and independent of the rep's own stream.
        """
        if self.backoff_base <= 0:
            return 0.0
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index, _BACKOFF_SPAWN_TAG, attempt))
        )
        raw = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        return float(min(self.backoff_max, raw) * (0.5 + rng.random()))

    def chunk_deadline(self, chunk_len: int) -> Optional[float]:
        """Parent-side wall-time budget for one dispatched chunk.

        Generous by construction — every rep may exhaust its timeout on
        every attempt, plus backoff and scheduling slack — because it is
        the backstop for *hung* workers, not the primary enforcement.
        """
        if self.timeout is None:
            return None
        per_rep = self.timeout * (1 + self.retries) + self.backoff_max * self.retries
        return per_rep * max(1, chunk_len) + 5.0


#: the default policy: identical behaviour to the pre-fault-tolerance
#: harness (fail fast, no timeout)
DEFAULT_POLICY = FaultPolicy()


# ----------------------------------------------------------------------
# per-rep timeout enforcement
# ----------------------------------------------------------------------
@contextmanager
def rep_deadline(timeout: Optional[float]):
    """Enforce a wall-time budget on the enclosed block via ``SIGALRM``.

    Active only when a timeout is set, the platform has ``setitimer``,
    and we are on the main thread (signal handlers cannot be installed
    elsewhere).  Pool workers execute chunks on their main thread, so
    per-rep timeouts hold wherever reps actually run hot; campaign
    threads fall back to the executor's chunk-level deadline.
    """
    if (
        timeout is None
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _alarm(signum, frame):
        raise RepTimeoutError(f"repetition exceeded its {timeout:.3f}s budget")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# atomic file writes (result cache, shared store and cached configs)
# ----------------------------------------------------------------------
def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` without ever exposing a torn file.

    The payload lands in a same-directory temp file first and is moved
    into place with ``os.replace`` (atomic on POSIX), so a crash mid-
    write leaves either the old content or nothing — never a truncated
    entry.  The deterministic chaos harness may corrupt the *result*
    afterwards (simulating a torn write from a previous crash) to
    exercise salvage paths.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    from repro.harness.chaos import get_chaos

    chaos = get_chaos()
    if chaos is not None:
        chaos.maybe_corrupt_file(path)
