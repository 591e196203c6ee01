"""Overlap merging of refined noise events (paper §5.2's ablation).

An injector process replays events sequentially per CPU, so events that
overlap in time on one CPU must be merged.  The paper found its first
merging rule *compromised* an entire evaluation: merging interrupt- and
thread-class noise into one event "using a pessimistic assumption
regarding the assigned scheduling policy" turned large stretches of
ordinary thread noise into SCHED_FIFO monsters (25.74% replay error).

Two strategies are provided:

* :attr:`MergeStrategy.NAIVE` — the original rule: any overlapping
  events merge into their envelope, and the merged event takes the
  most aggressive policy present (FIFO wins).
* :attr:`MergeStrategy.IMPROVED` — the corrected rule: events merge
  only within the same scheduling class, and thread-class noise gets an
  elevated fair-share weight so the scheduler replays it assertively
  without real-time privileges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.events import (
    POLICY_FOR_EVENT,
    RT_PRIORITY_FOR_EVENT,
    EventType,
)

__all__ = ["MergeStrategy", "RawEvent", "merge_events", "IMPROVED_THREAD_WEIGHT"]

#: fair-share weight given to thread-class noise by the improved rule
#: (≈ nice -5 in CFS weight terms)
IMPROVED_THREAD_WEIGHT = 3.0


class MergeStrategy(enum.Enum):
    """Which overlap-merging rule to use during config generation."""

    NAIVE = "naive"
    IMPROVED = "improved"


@dataclass
class RawEvent:
    """A to-be-injected event before policy annotation."""

    start: float
    duration: float
    etype: EventType
    source: str

    @property
    def end(self) -> float:
        """Event end time (start + duration)."""
        return self.start + self.duration


def _merge_run(run: list[RawEvent], pessimistic_policy: bool) -> RawEvent:
    """Collapse a list of mutually-overlapping events into one."""
    start = min(e.start for e in run)
    if pessimistic_policy:
        # Envelope duration + most aggressive class present.
        end = max(e.end for e in run)
        duration = end - start
        etype = min((e.etype for e in run), key=int)  # IRQ < SOFTIRQ < THREAD
    else:
        # Same-class merge: busy time adds up, no envelope padding,
        # left to right (`sum` compensates rounding on Python >= 3.12).
        duration = 0.0
        for e in run:
            duration += e.duration
        etype = run[0].etype
    sources = sorted({e.source for e in run})
    source = sources[0] if len(sources) == 1 else "+".join(sources)
    return RawEvent(start=start, duration=duration, etype=etype, source=source)


def _merge_sorted(events: list[RawEvent], pessimistic: bool) -> list[RawEvent]:
    """Merge overlapping neighbours in a start-sorted event list."""
    if not events:
        return []
    merged: list[RawEvent] = []
    run = [events[0]]
    run_end = events[0].end
    for e in events[1:]:
        if e.start < run_end:
            run.append(e)
            run_end = max(run_end, e.end)
        else:
            merged.append(_merge_run(run, pessimistic) if len(run) > 1 else run[0])
            run = [e]
            run_end = e.end
    merged.append(_merge_run(run, pessimistic) if len(run) > 1 else run[0])
    return merged


def merge_events(events: list[RawEvent], strategy: MergeStrategy) -> list[RawEvent]:
    """Merge one CPU's refined events according to ``strategy``.

    Input need not be sorted; output is sorted by start time.
    """
    events = sorted(events, key=lambda e: (e.start, e.duration))
    if strategy is MergeStrategy.NAIVE:
        return _merge_sorted(events, pessimistic=True)
    if strategy is MergeStrategy.IMPROVED:
        fifo_class = [e for e in events if e.etype is not EventType.THREAD]
        thread_class = [e for e in events if e.etype is EventType.THREAD]
        out = _merge_sorted(fifo_class, pessimistic=False) + _merge_sorted(
            thread_class, pessimistic=False
        )
        return sorted(out, key=lambda e: (e.start, e.duration))
    raise ValueError(f"unknown merge strategy: {strategy!r}")


def policy_for(etype: EventType, strategy: MergeStrategy) -> tuple[str, int, float]:
    """Scheduling annotation ``(policy, rt_priority, weight)`` for an event."""
    policy = POLICY_FOR_EVENT[etype]
    rt_priority = RT_PRIORITY_FOR_EVENT[etype]
    weight = 1.0
    if strategy is MergeStrategy.IMPROVED and etype is EventType.THREAD:
        weight = IMPROVED_THREAD_WEIGHT
    return policy, rt_priority, weight
