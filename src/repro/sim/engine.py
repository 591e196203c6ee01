"""Discrete-event simulation engine with a virtual clock.

The engine is deliberately minimal: binary heaps of timestamped
callbacks with stable FIFO ordering for ties and O(1) lazy
cancellation.  All higher-level semantics (CPU rates, scheduling,
noise) live in other modules and interact with the engine only through
:meth:`Engine.schedule` / :meth:`Engine.reschedule` (or their staged
forms) / :meth:`Engine.cancel`.

Determinism contract
--------------------
Two runs that schedule the same callbacks at the same times in the same
order execute identically: ties are broken by a monotonically increasing
sequence number, never by object identity or hash order.

Performance notes
-----------------
Heap entries are ``(time, seq, handle)`` tuples, so every sift
comparison is a C-level tuple compare (``seq`` is unique — the handle
itself is never compared).  The scheduler re-times completion events on
every rate change, which at paper scale means millions of comparisons
per run; keeping them out of Python-level ``__lt__`` is one of the
largest single wins on the simulator hot path.

An entry is live only while its ``seq`` equals its handle's ``seq``.
Cancelling sets the handle's ``seq`` to -1 and re-timing gives it a new
one, so either way the old entry is dead and is dropped when popped or
compacted.  :meth:`Engine.schedule` and :meth:`Engine.reschedule` each
push their one entry themselves, so an enqueue costs one Python frame;
a pending handle always has ``seq >= 0``, so ``reschedule`` counts the
entry it supersedes as dead without testing for it.

The scheduler mostly enqueues a whole team at once: 48 new completions
at each region start and about 25 re-timed ones at each memory-scale
change, about 34k entries per rep of the sim-bound a64fx/minife cell.
:meth:`Engine.stage` and :meth:`Engine.restage` are the batch forms of
``schedule`` and ``reschedule``: they hand out ``seq`` at the call,
exactly as the plain forms would, and only defer the push to one
:meth:`Engine.flush`.  A batch at least a quarter the size of its heap
rebuilds it once and drops its dead entries, so the run loop pops
about 1k dead entries per rep instead of about 22.6k; a smaller batch
is pushed entry by entry.

The engine keeps two heaps, split by how an entry is pushed.  Staged
entries (team completions) go to the batch heap, and ``flush`` rebuilds
only that one.  Everything ``schedule`` and ``reschedule`` push goes to
the singles heap: noise-source and anomaly arrivals, injector and I/O
arrivals, barrier releases, deferred rescales, migrations and
starvation checks.  On the sim-bound cell a rebuild then filters about
23 old entries, nearly all dead, instead of those plus the ~52 live
noise arrivals that a single heap re-heapified about 950 times per rep.
The run loop pops the smaller ``(time, seq)`` of the two tops.  Keys
are unique, so the pop order is that of one heap, and of the
one-at-a-time calls.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

__all__ = ["Engine", "EventHandle", "SimulationError"]

_INF = math.inf
#: how far in the past an event may be scheduled and still be clamped
#: to now (float round-off from rate integration), not rejected
TIME_EPSILON = 1e-12


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Cancellation is *lazy*: the heap entry stays in place and is skipped
    when popped.  This keeps cancellation O(1), which matters because
    the scheduler reschedules task-completion events on every rate
    change.  The owning engine is notified so it can keep an exact
    count of dead entries (O(1) ``pending_count`` and bounded heap
    growth) without scanning.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Mark this event as cancelled; it will be skipped when due."""
        if self.cancelled:
            return
        self.cancelled = True
        # The engine nulls our back-reference once we leave the heap,
        # so a late cancel (after the callback ran) cannot skew the
        # dead-entry count.
        engine = self._engine
        if engine is not None:
            engine._n_cancelled += 1
            if self.seq >= engine._stage_mark:
                engine._staged_dead += 1
            self._engine = None
        # No heap entry has seq -1: the pending one is now dead.
        self.seq = -1
        # Drop references eagerly so cancelled handles do not keep big
        # object graphs (tasks, pools) alive inside the heap.
        self.fn = None  # type: ignore[assignment]
        self.args = ()

    def __lt__(self, other: "EventHandle") -> bool:
        # Heap entries are tuples, so this is only reached by explicit
        # handle comparisons (tests, debugging) — never on the hot path.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


class Engine:
    """Virtual-time event loop.

    Events scheduled within :data:`TIME_EPSILON` seconds in the past are
    clamped to *now* rather than rejected; this absorbs floating point
    round-off from rate integration.
    """

    def __init__(self):
        self.now: float = 0.0
        #: entries pushed by `schedule` and `reschedule`
        self._singles: list[tuple[float, int, EventHandle]] = []
        #: entries pushed by `flush`, i.e. staged by `stage` and `restage`
        self._batch: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        #: dead (cancelled or re-timed, not yet popped) entries in the
        #: heaps and the staged batch
        self._n_cancelled = 0
        #: size of both heaps below which compaction is suppressed; doubled after
        #: every compaction so repeated reschedule bursts hovering near
        #: the dead-entry threshold cannot thrash O(n) rebuilds
        self._compact_floor = 128
        #: number of in-place heap compactions performed (observability
        #: for the thrash regression test and perf triage)
        self.compactions: int = 0
        #: number of callbacks actually executed (cancelled ones excluded)
        self.events_executed: int = 0
        #: entries of `stage`/`restage` awaiting `flush`; dead ones among
        #: them count in ``_n_cancelled`` like dead heap entries
        self._staged: list[tuple[float, int, EventHandle]] = []
        #: ``_seq`` at the last flush: every staged entry's seq is at least this
        self._stage_mark = 0
        #: re-timings and cancels of handles stamped since the last
        #: flush, so at least the dead staged entries; 0 means none
        self._staged_dead = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual ``time``.

        Returns a handle that may be cancelled until the callback runs.
        """
        if not self.now <= time < _INF:
            time = self._checked(time)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heap = self._singles
        heappush(heap, (time, seq, handle))
        n_cancelled = self._n_cancelled
        if n_cancelled > 64 and (
            n_cancelled * 2 > len(heap) + len(self._batch) >= self._compact_floor
        ):
            self._compact()
        return handle

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Move a pending event to absolute virtual ``time``.

        Same effect as cancelling ``handle`` and scheduling its callback
        again: the event takes the next ``seq``, so the ``(time, seq)``
        pop order is exactly that of cancel + schedule.  But the handle
        is reused and only one entry is pushed.  The old entry dies by
        its ``seq`` mismatch and counts as cancelled until it is popped
        or compacted away.  A handle that already ran or was cancelled
        raises :class:`SimulationError`.
        """
        if handle._engine is not self:
            raise SimulationError(f"cannot reschedule a finished event: {handle!r}")
        if not self.now <= time < _INF:
            time = self._checked(time)
        # A pending handle's seq is >= 0, so the entry under it is live
        # until now: it becomes one more dead entry.
        n_cancelled = self._n_cancelled + 1
        self._n_cancelled = n_cancelled
        if handle.seq >= self._stage_mark:
            self._staged_dead += 1
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        heap = self._singles
        heappush(heap, (time, seq, handle))
        if n_cancelled > 64 and (
            n_cancelled * 2 > len(heap) + len(self._batch) >= self._compact_floor
        ):
            self._compact()
        return handle

    def stage(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """:meth:`schedule` whose heap push waits for :meth:`flush`.

        The event takes its ``seq`` now, so a plain ``schedule`` between
        two staged calls keeps its place in the pop order.  The caller
        must flush before control returns to the run loop.
        """
        if not self.now <= time < _INF:
            time = self._checked(time)
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        self._staged.append((time, seq, handle))
        return handle

    def restage(self, handle: EventHandle, time: float) -> EventHandle:
        """:meth:`reschedule` whose heap push waits for :meth:`flush`."""
        if handle._engine is not self:
            raise SimulationError(f"cannot reschedule a finished event: {handle!r}")
        if not self.now <= time < _INF:
            time = self._checked(time)
        self._n_cancelled += 1
        if handle.seq >= self._stage_mark:
            self._staged_dead += 1
        seq = self._seq
        self._seq = seq + 1
        handle.time = time
        handle.seq = seq
        self._staged.append((time, seq, handle))
        return handle

    def flush(self) -> None:
        """Push every staged entry into the batch heap.

        A batch of at least 8 entries and a quarter of the batch heap
        rebuilds it with one ``heapify``, dropping the dead entries of
        both; a smaller one is pushed entry by entry.  The batch is
        filtered only when a handle stamped since the last flush was
        re-timed or cancelled, as nearly no batch is.
        """
        staged = self._staged
        if not staged:
            return
        heap = self._batch
        n = len(staged)
        if n >= 8 and 4 * n >= len(heap):
            before = len(heap) + n
            heap[:] = [e for e in heap if e[1] == e[2].seq]
            heap += [e for e in staged if e[1] == e[2].seq] if self._staged_dead else staged
            heapq.heapify(heap)
            # the singles heap keeps its dead entries: count out only ours
            self._n_cancelled -= before - len(heap)
        else:
            for entry in staged:
                heappush(heap, entry)
            n_cancelled = self._n_cancelled
            if n_cancelled > 64 and (
                n_cancelled * 2 > len(heap) + len(self._singles) >= self._compact_floor
            ):
                self._compact()
        staged.clear()
        self._staged_dead = 0
        self._stage_mark = self._seq

    def _checked(self, time: float) -> float:
        """Validate an event time that is not in ``[now, inf)``: reject
        NaN, infinities and the past, but clamp round-off to now."""
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time: {time!r}")
        now = self.now
        if now - time > TIME_EPSILON + 1e-9 * abs(now):
            raise SimulationError(f"cannot schedule event at t={time!r} before now={now!r}")
        return now

    def _compact(self) -> None:
        # Heavy cancellation (rate-change rescheduling) would otherwise
        # grow the heap without bound: once dead entries dominate,
        # compact both heaps in place.  In place, because the run loop
        # holds references to these exact lists.  The floor provides
        # hysteresis: after a rebuild the heaps must double before the
        # next one, so churn sitting just past the dead-entry threshold
        # stays amortized O(1) per schedule instead of O(n).
        # Staged entries are filtered too: their dead ones are counted.
        for heap in (self._singles, self._batch):
            heap[:] = [e for e in heap if e[1] == e[2].seq]
            heapq.heapify(heap)
        staged = self._staged
        if staged:
            staged[:] = [e for e in staged if e[1] == e[2].seq]
        self._staged_dead = 0
        self._n_cancelled = 0
        self.compactions += 1
        self._compact_floor = 2 * (len(self._singles) + len(self._batch)) + 128

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule(self.now + delay, fn, *args)

    @staticmethod
    def cancel(handle: Optional[EventHandle]) -> None:
        """Cancel a pending event; ``None`` and already-run handles are no-ops."""
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to exit after the current callback."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event would be strictly later
            than ``until`` and advance the clock to ``until``.
        max_events:
            Safety valve for tests; raises :class:`SimulationError` when
            exceeded (runaway event loops are bugs, not workloads).

        Returns the virtual time at exit.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            singles, batch = self._singles, self._batch
            last = None
            while not self._stopped:
                if batch:
                    heap = singles if singles and singles[0] < batch[0] else batch
                elif singles:
                    heap = singles
                else:
                    break
                t, seq, handle = heappop(heap)
                if seq != handle.seq:
                    self._n_cancelled -= 1
                    continue
                # The rest of a timestamp group skips the `until` check
                # and the clock: the scheduler's deferred rescales and
                # barrier releases cluster many events on one instant.
                if t != last:
                    if until is not None and t > until:
                        # keys are unique, so pushing the entry back
                        # restores the same pop order
                        heappush(heap, (t, seq, handle))
                        break
                    if t > self.now:
                        self.now = t
                    last = t
                fn, args = handle.fn, handle.args
                # Free the handle's references before invoking, so a
                # callback rescheduling itself does not chain handles;
                # detach the engine so a late cancel is a pure no-op.
                handle.fn = None  # type: ignore[assignment]
                handle.args = ()
                handle._engine = None
                fn(*args)
                executed += 1
                if max_events is not None and executed > max_events:
                    self.events_executed += executed
                    executed = 0
                    raise SimulationError(f"exceeded max_events={max_events}")
            if until is not None and self.now < until and not self._stopped:
                self.now = until
            return self.now
        finally:
            self.events_executed += executed
            self._running = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued, staged
        ones included.  O(1): the engine tracks dead entries exactly."""
        return len(self._singles) + len(self._batch) + len(self._staged) - self._n_cancelled

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live event, staged ones included, or
        ``None`` if none is pending (the events :meth:`pending_count`
        counts).

        Single lazy pass: dead heads are popped (and never
        revisited) until a live event surfaces — the same discipline
        the run loop uses, so repeated introspection cannot re-scan or
        retain dead entries.
        """
        times = [e[0] for e in self._staged if e[1] == e[2].seq]
        for heap in (self._singles, self._batch):
            while heap and heap[0][1] != heap[0][2].seq:
                heappop(heap)
                self._n_cancelled -= 1
            if heap:
                times.append(heap[0][0])
        return min(times, default=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now:.9f} pending={self.pending_count()}>"
