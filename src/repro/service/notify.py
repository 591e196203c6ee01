"""Event-driven wakeup channel for the campaign service.

Workers waiting for work and clients waiting for results used to poll
the queue on a fixed interval — a latency tax of up to one poll period
per state transition, multiplied across every idle worker.  A
:class:`NotifyChannel` replaces the sleep with a *wakeable* wait:

* each waiter :meth:`subscribes <NotifyChannel.subscribe>` by creating
  a private named pipe (fifo) under the channel directory and blocking
  in ``select()`` on its read end;
* each state change :meth:`notifies <NotifyChannel.notify>` by writing
  one byte into every subscriber fifo (non-blocking; a full pipe means
  the subscriber already has a wake pending).

The channel is purely an *optimisation*: a missed or spurious wakeup is
harmless because every waiter re-checks the queue on wake and still
falls back to its old poll interval as a timeout.  Correctness never
depends on delivery — which is why the fifo write ignores every error.

Two channels exist per queue (``<queue>.notify/submit`` wakes idle
workers, ``<queue>.notify/complete`` wakes waiting clients); both
degrade gracefully:

* a platform without ``os.mkfifo`` falls back to
  a :class:`_PollSubscription` that samples ``PRAGMA data_version``
  (any *other* connection's commit bumps it) at a sub-interval of the
  poll period — still cheaper than a full queue query;
* a subscriber that dies without :meth:`Subscription.close` leaves a
  readerless fifo behind; the next ``notify()`` observes ``ENXIO`` and
  reaps it once it is old enough to not be a mid-``subscribe`` race.
"""

from __future__ import annotations

import errno
import itertools
import os
import select
import time
from pathlib import Path
from typing import Callable, Optional

from repro import telemetry as _telemetry

__all__ = ["NotifyChannel", "Subscription", "notify_enabled"]

#: a readerless fifo younger than this may be a subscriber mid-open;
#: older, it belongs to a dead process and is reaped on notify
_STALE_FIFO_S = 30.0

_seq = itertools.count()
_UNSET = object()


def notify_enabled() -> bool:
    """Whether the fifo-based channel is available on this platform."""
    return hasattr(os, "mkfifo")


class Subscription:
    """One waiter's read end of a channel: a private non-blocking fifo."""

    def __init__(self, path: Path, fd: int):
        self._path = path
        self._fd: Optional[int] = fd

    def wait(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for a wakeup; drain and
        report whether one arrived.  Always a *hint* — the caller
        re-checks its condition either way."""
        if self._fd is None:
            time.sleep(max(0.0, timeout))
            return False
        try:
            ready, _, _ = select.select([self._fd], [], [], max(0.0, timeout))
        except (OSError, ValueError):  # pragma: no cover - fd torn down
            time.sleep(max(0.0, timeout))
            return False
        if not ready:
            return False
        # Drain every pending byte so coalesced notifications cost one
        # wake, not one wake each.
        while True:
            try:
                chunk = os.read(self._fd, 4096)
            except BlockingIOError:
                break
            except OSError:  # pragma: no cover - fd torn down
                break
            if len(chunk) < 4096:  # includes b"": spurious hangup wake
                break
        return True

    def close(self) -> None:
        """Idempotent teardown; the fifo is unlinked even if closing
        the descriptor raises, so no exit path can leak an endpoint."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            try:
                os.close(fd)
            finally:
                self._path.unlink(missing_ok=True)
        else:
            self._path.unlink(missing_ok=True)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PollSubscription(Subscription):
    """Fallback waiter: sample a change probe (``PRAGMA data_version``)
    at a sub-interval instead of blocking on a fifo.

    Own-connection writes do not bump ``data_version``, so in-process
    same-connection changes are only seen at the full timeout — which is
    exactly the pre-notify behaviour and still correct.
    """

    def __init__(self, probe: Optional[Callable[[], object]] = None, interval: float = 0.05):
        self._probe = probe
        self._interval = interval
        self._last: object = _UNSET
        if probe is not None:
            try:
                self._last = probe()
            except Exception:
                self._probe = None

    def wait(self, timeout: float) -> bool:
        if self._probe is None:
            time.sleep(max(0.0, timeout))
            return False
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(self._interval, remaining))
            try:
                value = self._probe()
            except Exception:  # pragma: no cover - probe connection died
                self._probe = None
                return False
            if value != self._last:
                self._last = value
                return True

    def close(self) -> None:
        self._probe = None


class NotifyChannel:
    """Broadcast wakeups to every subscriber of a channel directory."""

    def __init__(self, root: os.PathLike | str, enabled: Optional[bool] = None):
        self.root = Path(root)
        self.enabled = notify_enabled() if enabled is None else enabled
        self._counters = _telemetry.get_group("service_notify")

    def subscribe(self, probe: Optional[Callable[[], object]] = None) -> Subscription:
        """A fresh waiter handle; ``probe`` powers the poll fallback."""
        if not self.enabled:
            return _PollSubscription(probe)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:  # pragma: no cover - unwritable channel dir
            return _PollSubscription(probe)
        for _ in range(3):
            path = self.root / f"{os.getpid()}-{next(_seq)}.fifo"
            try:
                os.mkfifo(path)
                # O_RDWR (not O_RDONLY): the subscription holds its own
                # write end open, so the fifo never enters the persistent
                # EOF-readable state after a notifier closes — select()
                # then wakes on data only, never spins on hangup.
                return Subscription(path, os.open(path, os.O_RDWR | os.O_NONBLOCK))
            except OSError:
                continue
        return _PollSubscription(probe)  # pragma: no cover - fifo hostile fs

    def notify(self) -> int:
        """Write a wake byte to every live subscriber; returns how many
        were reached.  Never raises: delivery is best-effort by design.

        The ``torn-fifo`` chaos profile drops whole notifications here —
        the worst a torn fifo write can do, and exactly the lost-wakeup
        case the design already absorbs (waiters re-check on their poll
        timeout)."""
        if not self.enabled:
            return 0
        from repro.harness.chaos import get_chaos

        chaos = get_chaos()
        if chaos is not None and chaos.torn_fifo_fault():
            return 0
        try:
            paths = list(self.root.glob("*.fifo"))
        except OSError:  # pragma: no cover - channel dir vanished
            return 0
        reached = 0
        for path in paths:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                if exc.errno == errno.ENXIO:
                    # No reader: a dead subscriber's leftover — unless it
                    # is brand new (mkfifo→open window of a live one).
                    self._reap(path)
                continue
            try:
                os.write(fd, b"\x01")
                reached += 1
            except OSError:
                # EAGAIN: pipe full — the subscriber already has a wake
                # pending, which is all a notification means anyway.
                reached += 1
            finally:
                os.close(fd)
        if reached:
            self._counters.inc("notifications_sent", reached)
        return reached

    def _reap(self, path: Path) -> None:
        try:
            if time.time() - path.stat().st_mtime > _STALE_FIFO_S:
                path.unlink(missing_ok=True)
                self._counters.inc("stale_fifos_reaped")
        except OSError:  # pragma: no cover - lost race with the owner
            pass
