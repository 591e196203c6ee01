"""Deterministic chaos harness: seeded fault injection for the injector.

The noise-injection framework exists to study how systems behave under
disturbance — this module turns that lens on the harness itself.  With

    REPRO_CHAOS=PROFILE:SEED[:RATE]

set, seeded fault injectors fire inside the rep execution path and the
result-cache write path, exercising every recovery mechanism of
:mod:`repro.harness.faults` / the executors:

========== ==========================================================
profile    injected fault
========== ==========================================================
``raise``  an exception raised before the rep's simulation starts
``timeout``an induced stall (sleep past the policy's per-rep timeout)
``crash``  worker death via ``os._exit`` (pool-breakage recovery);
           downgraded to an exception outside pool workers
``corrupt``cache-file corruption after a completed write (torn-entry
           salvage)
``all``    a deterministic mix of the above
========== ==========================================================

**Service-tier profiles** exercise the campaign service's self-healing
machinery (:mod:`repro.service`) instead of the rep path:

================ ====================================================
profile          injected fault
================ ====================================================
``kill-worker``  ``os._exit`` a *service* worker right after it leases
                 a job (lease release / poison detection / supervisor
                 restart); only fires in processes that declared
                 themselves via :func:`mark_service_worker`
``corrupt-store``flip one digit near mid-file after a completed store
                 write (sha256 verification, ``.corrupt`` quarantine,
                 re-simulation)
``torn-fifo``    drop/tear notify-fifo wakeup writes (latency, never
                 correctness — waiters re-check on their poll timeout)
``busy-storm``   synthetic SQLITE_BUSY on queue write transactions
                 (bounded seeded-backoff retry; never past the retry
                 budget, so storms degrade to waits, not errors)
================ ====================================================

Service faults are keyed on job keys / per-process draw counters, so
they are deterministic per (chaos seed, workload) like everything else
here; ``all`` deliberately excludes them — killing service workers is
opt-in per profile.

Faults are pure functions of ``(chaos seed, experiment seed, rep
index, attempt)`` — independent of worker count, chunking, or timing —
and by default fire only on a rep's *first* attempt, so every injected
fault is recoverable and a chaos run converges to results bit-identical
to an undisturbed run.  Appending ``!`` to the profile (e.g.
``crash!``) makes faults persist across attempts, which is how tests
drive the executor's terminal paths (degrade-to-serial, skip policy).

Nothing in this module runs unless ``REPRO_CHAOS`` is set; the hot
path pays one cached environment lookup.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro import telemetry as _telemetry

__all__ = ["ChaosError", "ChaosSpec", "get_chaos", "parse_chaos", "flip_digit", "CHAOS_PROFILES"]

_log = logging.getLogger(__name__)

#: profiles targeting the rep execution / cache-write paths
_REP_PROFILES = ("raise", "timeout", "crash", "corrupt", "all")
#: profiles targeting the campaign service tier
_SERVICE_PROFILES = ("kill-worker", "corrupt-store", "torn-fifo", "busy-storm")
CHAOS_PROFILES = _REP_PROFILES + _SERVICE_PROFILES

#: exit code of chaos-crashed workers (recognisable in pool post-mortems)
CRASH_EXIT_CODE = 87

#: default per-rep / per-write fault probability
_DEFAULT_RATE = 0.25

#: set by the pool-worker chunk entry point: ``crash`` may only
#: ``os._exit`` a process whose death the parent can recover from
_IN_WORKER = False

#: set by the *service* worker entry point (``repro-noise service
#: start`` / supervisor children): ``kill-worker`` may only take down a
#: process whose lease the queue can recover — never a test runner or
#: an in-process client that merely opened a JobQueue
_IN_SERVICE_WORKER = False


def flip_digit(raw: bytes) -> Optional[bytes]:
    """``raw`` (a JSON document) with the digit nearest its middle turned
    into another digit (``^ 0x01`` keeps ``0``–``9`` in range), choosing
    the nearest flip that still parses but to other data; ``None`` when
    no digit qualifies.  A seal over the data is all that can tell."""
    before = json.dumps(json.loads(raw))
    mid = len(raw) // 2
    for at in sorted(range(len(raw)), key=lambda i: abs(i - mid)):
        if not 0x30 <= raw[at] <= 0x39:
            continue
        flipped = raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]
        try:
            if json.dumps(json.loads(flipped)) != before:
                return flipped
        except ValueError:
            continue
    return None


class ChaosError(RuntimeError):
    """The fault injected by the ``raise`` profile."""


def mark_worker(active: bool = True) -> None:
    """Declare this process a pool worker (crash faults become real)."""
    global _IN_WORKER
    _IN_WORKER = active


def in_worker() -> bool:
    """Whether this process may be killed by the ``crash`` profile."""
    return _IN_WORKER


def mark_service_worker(active: bool = True) -> None:
    """Declare this process a service worker (kill-worker faults become
    real).  Distinct from :func:`mark_worker`: a service worker hosts
    its own pool workers, and only the outer process's death exercises
    lease release and supervisor restarts."""
    global _IN_SERVICE_WORKER
    _IN_SERVICE_WORKER = active


def in_service_worker() -> bool:
    """Whether this process may be killed by ``kill-worker``."""
    return _IN_SERVICE_WORKER


@dataclass(frozen=True)
class ChaosSpec:
    """A parsed ``REPRO_CHAOS`` directive."""

    profile: str
    seed: int
    rate: float = _DEFAULT_RATE
    #: fire on every attempt instead of only the first (``profile!``);
    #: used to drive terminal failure paths in tests
    persist: bool = False

    # ------------------------------------------------------------------
    def _draw(self, *key) -> float:
        """Uniform [0, 1) deterministic in (chaos seed, key)."""
        blob = "|".join(str(k) for k in (self.seed, *key)).encode()
        return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") / 2**64

    def _mode(self, spec_seed: int, index: int) -> Optional[str]:
        """Which fault (if any) fires for this rep, independent of attempt."""
        if self._draw("fire", spec_seed, index) >= self.rate:
            return None
        if self.profile != "all":
            return self.profile
        modes = ("raise", "timeout", "crash")
        return modes[int(self._draw("mode", spec_seed, index) * len(modes))]

    # ------------------------------------------------------------------
    def rep_fault(
        self,
        spec_seed: int,
        index: int,
        attempt: int,
        timeout: Optional[float] = None,
    ) -> None:
        """Maybe inject a fault into rep ``index`` (called pre-simulation).

        Fires before any simulation state or RNG draw exists, so a rep
        that survives (or retries past) an injected fault produces a
        result bit-identical to an undisturbed run.
        """
        if self.profile in _SERVICE_PROFILES:
            return  # service faults never fire inside the rep path
        if attempt > 0 and not self.persist:
            return
        mode = self._mode(spec_seed, index)
        if mode is None or mode == "corrupt":
            return
        # Counted before injecting: a crash fault never returns.  Shared
        # group, so worker-side injections flush back with the chunk.
        group = _telemetry.get_group("chaos")
        group.inc("injected_faults")
        group.inc(mode)
        if mode == "crash":
            if in_worker():
                _log.warning("chaos: killing worker %d at rep %d", os.getpid(), index)
                os._exit(CRASH_EXIT_CODE)
            # No pool to break outside a worker: degrade to an exception
            # the retry machinery can contain.
            raise ChaosError(f"chaos: injected crash (serial downgrade) at rep {index}")
        if mode == "timeout":
            # Stall past the policy's budget so SIGALRM enforcement (or
            # the parent's chunk deadline) fires; finite, so unenforced
            # contexts merely run slow and still succeed cleanly.
            time.sleep((timeout if timeout is not None else 0.05) + 0.05)
            return
        raise ChaosError(f"chaos: injected exception at rep {index}")

    # ------------------------------------------------------------------
    def maybe_corrupt_file(self, path: Path) -> bool:
        """Maybe tear a freshly written file (once per path per process).

        Simulates a crash mid-write from a *previous* session: the next
        reader finds a truncated entry and must salvage (evict + re-run).
        Only the first write of a path is eligible, so the re-written
        entry stands and chaos runs converge.

        The ``corrupt-store`` service profile flips one digit instead of
        truncating (:func:`flip_digit`) — the entry stays valid JSON
        with other data, so only sha256 verification can catch it.
        """
        if self.profile not in ("corrupt", "all", "corrupt-store"):
            return False
        path = Path(path)
        seen = _corrupted_paths()
        if str(path) in seen:
            return False
        seen.add(str(path))
        if self._draw("corrupt", path.name) >= self.rate:
            return False
        try:
            raw = path.read_bytes()
            if self.profile == "corrupt-store":
                flipped = flip_digit(raw)
                if flipped is None:
                    return False
                path.write_bytes(flipped)
            else:
                path.write_bytes(raw[: max(1, len(raw) // 2)])
        except OSError:
            return False
        group = _telemetry.get_group("chaos")
        group.inc("injected_faults")
        group.inc("corrupt_files")
        _log.warning("chaos: tore freshly written file %s", path)
        return True

    # ------------------------------------------------------------------
    # service-tier faults
    # ------------------------------------------------------------------
    def maybe_kill_worker(self, key: str, attempt: int) -> None:
        """Maybe ``os._exit`` a *service* worker that just leased ``key``.

        Keyed on the job key, so the same cells are poisonous on every
        run; fires only on the job's first lease unless ``!`` persist —
        a persistent ``kill-worker!`` at rate 1.0 is the canonical
        poison job (kills every worker that touches it until the queue
        quarantines it).  No-op outside processes marked via
        :func:`mark_service_worker`.
        """
        if self.profile != "kill-worker" or not in_service_worker():
            return
        if attempt > 1 and not self.persist:
            return
        if self._draw("kill-worker", key) >= self.rate:
            return
        group = _telemetry.get_group("chaos")
        group.inc("injected_faults")
        group.inc("killed_workers")
        _log.warning(
            "chaos: killing service worker %d holding %s", os.getpid(), key
        )
        os._exit(CRASH_EXIT_CODE)

    def torn_fifo_fault(self) -> bool:
        """Whether to drop this notify-fifo wakeup write (torn write).

        Deterministic per process in draw order; a dropped wakeup is
        the worst a real torn fifo write can do (readers drain bytes,
        they never parse them), so correctness is untouched and waiters
        fall back to their poll timeout.
        """
        if self.profile != "torn-fifo":
            return False
        n = _service_draws("fifo")
        if self._draw("torn-fifo", n) >= self.rate:
            return False
        group = _telemetry.get_group("chaos")
        group.inc("injected_faults")
        group.inc("torn_fifo_writes")
        return True

    def busy_storm_fault(self) -> bool:
        """Whether to inject a synthetic SQLITE_BUSY into this queue
        write attempt.  The caller keeps storms inside its bounded
        retry budget, so the worst case is backoff latency."""
        if self.profile != "busy-storm":
            return False
        n = _service_draws("busy")
        if self._draw("busy-storm", n) >= self.rate:
            return False
        group = _telemetry.get_group("chaos")
        group.inc("injected_faults")
        group.inc("busy_storms")
        return True


#: per-process memory of write-eligibility (first write per path)
_CORRUPTED: set = set()


def _corrupted_paths() -> set:
    return _CORRUPTED


#: per-process draw counters for service faults without a natural key
_SERVICE_DRAWS: dict = {}


def _service_draws(kind: str) -> int:
    n = _SERVICE_DRAWS.get(kind, 0)
    _SERVICE_DRAWS[kind] = n + 1
    return n


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def parse_chaos(text: str) -> ChaosSpec:
    """Parse a ``PROFILE[!]:SEED[:RATE]`` directive."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"REPRO_CHAOS must be PROFILE:SEED[:RATE], got {text!r} "
            f"(profiles: {', '.join(CHAOS_PROFILES)})"
        )
    profile = parts[0].strip()
    persist = profile.endswith("!")
    if persist:
        profile = profile[:-1]
    if profile not in CHAOS_PROFILES:
        raise ValueError(
            f"unknown chaos profile {profile!r} (known: {', '.join(CHAOS_PROFILES)})"
        )
    try:
        seed = int(parts[1])
    except ValueError:
        raise ValueError(f"chaos seed must be an integer, got {parts[1]!r}") from None
    rate = _DEFAULT_RATE
    if len(parts) == 3:
        try:
            rate = float(parts[2])
        except ValueError:
            raise ValueError(f"chaos rate must be a float, got {parts[2]!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {rate}")
    return ChaosSpec(profile=profile, seed=seed, rate=rate, persist=persist)


_cached: tuple[Optional[str], Optional[ChaosSpec]] = (None, None)


def get_chaos() -> Optional[ChaosSpec]:
    """The active chaos directive, or ``None`` (re-reads the env).

    The parsed spec is cached per env value, so the common case (no
    chaos) costs one dict lookup per call.
    """
    global _cached
    raw = os.environ.get("REPRO_CHAOS") or None
    if raw == _cached[0]:
        return _cached[1]
    spec = parse_chaos(raw) if raw else None
    _cached = (raw, spec)
    return spec
