"""Noise configuration generation (paper §4.2, Fig. 5).

The configuration file is the injector's blueprint: each traced logical
CPU maps to a list of noise events annotated with start time, duration,
and scheduling policy.  This module turns a worst-case trace plus the
average-noise profile into that JSON structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from repro.core.events import EventType
from repro.core.merge import MergeStrategy, RawEvent, merge_events, policy_for
from repro.core.profile import NoiseProfile
from repro.core.refine import refine_worst_case
from repro.core.trace import Trace

__all__ = ["ConfigEvent", "NoiseConfig", "generate_config"]

#: events shorter than this are not worth a wakeup+busy-loop (and the
#: real injector could not time them anyway)
DEFAULT_MIN_INJECT_DURATION = 5e-6


@dataclass(frozen=True)
class ConfigEvent:
    """One event an injector process must replay."""

    start: float
    duration: float
    policy: str          # "SCHED_FIFO" | "SCHED_OTHER"
    rt_priority: int
    weight: float
    etype: EventType
    source: str

    def __post_init__(self) -> None:
        # NaN fails this comparison too
        if not (0 <= self.start < math.inf and 0 < self.duration < math.inf):
            raise ValueError("event needs a finite start >= 0 and duration > 0")
        if self.policy not in ("SCHED_FIFO", "SCHED_OTHER"):
            raise ValueError(f"unknown policy {self.policy!r}")

    def to_dict(self) -> dict:
        """JSON-serialisable form (Fig. 5 field names)."""
        return {
            "start_time": self.start,
            "duration": self.duration,
            "policy": self.policy,
            "rt_priority": self.rt_priority,
            "weight": self.weight,
            "event_type": self.etype.label,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ConfigEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            start=d["start_time"],
            duration=d["duration"],
            policy=d["policy"],
            rt_priority=d["rt_priority"],
            weight=d.get("weight", 1.0),
            etype=EventType.from_label(d["event_type"]),
            source=d.get("source", "unknown"),
        )


class NoiseConfig:
    """Per-CPU noise event lists plus provenance metadata."""

    def __init__(self, events_per_cpu: dict[int, list[ConfigEvent]], meta: Optional[dict] = None):
        self.events_per_cpu = {
            cpu: sorted(evts, key=lambda e: e.start) for cpu, evts in events_per_cpu.items() if evts
        }
        self.meta = dict(meta) if meta else {}

    # ------------------------------------------------------------------
    @property
    def n_cpus(self) -> int:
        """Number of injector processes the config spawns."""
        return len(self.events_per_cpu)

    @property
    def n_events(self) -> int:
        """Total events to inject."""
        return sum(len(v) for v in self.events_per_cpu.values())

    def total_busy_time(self) -> float:
        """CPU-seconds of noise the config injects."""
        return sum(e.duration for evts in self.events_per_cpu.values() for e in evts)

    def window(self) -> float:
        """Span from first event start to last event end."""
        if not self.events_per_cpu:
            return 0.0
        starts = [e.start for v in self.events_per_cpu.values() for e in v]
        ends = [e.start + e.duration for v in self.events_per_cpu.values() for e in v]
        return max(ends) - min(starts)

    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise in the Fig.-5 layout (one thread block per CPU)."""
        payload = {
            "meta": self.meta,
            "threads": [
                {
                    "cpu": cpu,
                    "noise_events": [e.to_dict() for e in events],
                }
                for cpu, events in sorted(self.events_per_cpu.items())
            ],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "NoiseConfig":
        """Parse a configuration serialised by :meth:`to_json`."""
        payload = json.loads(text)
        events = {
            int(block["cpu"]): [ConfigEvent.from_dict(d) for d in block["noise_events"]]
            for block in payload["threads"]
        }
        return cls(events, payload.get("meta"))

    def save(self, path) -> None:
        """Write the configuration to ``path`` as indented JSON."""
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=2))

    @classmethod
    def load(cls, path) -> "NoiseConfig":
        """Read a configuration previously written by :meth:`save`.

        A file that holds no such configuration raises ``ValueError``.
        """
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"not a noise configuration ({type(exc).__name__}: {exc})") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NoiseConfig cpus={self.n_cpus} events={self.n_events} "
            f"busy={self.total_busy_time() * 1e3:.2f}ms>"
        )


def generate_config(
    worst: Trace,
    profile: NoiseProfile,
    merge: MergeStrategy = MergeStrategy.IMPROVED,
    min_duration: float = DEFAULT_MIN_INJECT_DURATION,
    meta: Optional[dict] = None,
) -> NoiseConfig:
    """Stage 2 end-to-end: refine, merge, annotate, package.

    Parameters
    ----------
    worst:
        Worst-case trace from the collection stage.
    profile:
        Average-noise profile from the collection stage.
    merge:
        Overlap-merging rule; :attr:`MergeStrategy.NAIVE` reproduces
        the paper's compromised variant.
    min_duration:
        Events shorter than this after refinement are skipped.
    """
    refined = refine_worst_case(worst, profile)
    per_cpu: dict[int, list[RawEvent]] = {}
    for cpu, etype, source, start, duration in refined.iter_records():
        if duration < min_duration:
            continue
        per_cpu.setdefault(cpu, []).append(
            RawEvent(start=start, duration=duration, etype=etype, source=source)
        )
    events_per_cpu: dict[int, list[ConfigEvent]] = {}
    for cpu, raw in per_cpu.items():
        merged = merge_events(raw, merge)
        out = []
        for e in merged:
            policy, prio, weight = policy_for(e.etype, merge)
            out.append(
                ConfigEvent(
                    start=e.start,
                    duration=e.duration,
                    policy=policy,
                    rt_priority=prio,
                    weight=weight,
                    etype=e.etype,
                    source=e.source,
                )
            )
        events_per_cpu[cpu] = out
    full_meta = {
        "merge_strategy": merge.value,
        "worst_case_exec_time": worst.exec_time,
        "min_duration": min_duration,
        **(worst.meta or {}),
        **(meta or {}),
    }
    return NoiseConfig(events_per_cpu, full_meta)
