"""Average-noise profile: per-source frequency and duration (§4.2).

The collected traces give two insights (paper §4.1): the average system
noise — "obtained by averaging the frequency and duration of recurring
tasks across all executions" — and the worst-case trace.  This module
computes the former, streaming so a thousand traces never need to be
resident at once.

Frequencies are normalised per second of traced execution (runs have
different lengths), matching the paper's use of "average frequency of
the task within the worst-case execution window".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.core.events import EventType
from repro.core.trace import Trace

__all__ = ["SourceStats", "NoiseProfile", "ProfileAccumulator", "build_profile"]


@dataclass(frozen=True)
class SourceStats:
    """Aggregate behaviour of one noise source across all runs."""

    source: str
    etype: EventType
    rate_hz: float          # occurrences per second of execution
    mean_duration: float    # seconds
    total_events: int

    def expected_count(self, window: float) -> int:
        """Occurrences expected within an execution ``window`` (§4.2)."""
        if window < 0:
            raise ValueError(f"negative window: {window!r}")
        return int(round(self.rate_hz * window))


class NoiseProfile(Mapping):
    """Mapping of source name → :class:`SourceStats`."""

    def __init__(self, stats: dict[str, SourceStats], n_runs: int, total_window: float):
        if n_runs <= 0 or total_window <= 0:
            raise ValueError("profile needs at least one traced run")
        self._stats = dict(stats)
        self.n_runs = n_runs
        self.total_window = total_window

    def __getitem__(self, source: str) -> SourceStats:
        return self._stats[source]

    def __iter__(self):
        return iter(self._stats)

    def __len__(self) -> int:
        return len(self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NoiseProfile sources={len(self)} runs={self.n_runs}>"


class ProfileAccumulator:
    """Streaming builder for :class:`NoiseProfile`.

    Feed traces one at a time with :meth:`add`; each is reduced to
    per-source counts immediately, so memory stays O(#sources).
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._durations: dict[str, float] = {}
        self._etypes: dict[str, dict[int, int]] = {}
        self.n_runs = 0
        self.total_window = 0.0

    def add(self, trace: Trace) -> None:
        """Fold one run's trace into the profile."""
        self.n_runs += 1
        self.total_window += trace.exec_time
        if trace.n_events == 0:
            return
        n_sources = len(trace.sources)
        counts = np.bincount(trace.source_ids, minlength=n_sources)
        sums = np.bincount(trace.source_ids, weights=trace.durations, minlength=n_sources)
        # Per-source etype histograms from one joint bincount, a row of
        # ``n_types`` bins per source (sources rarely mix types); a
        # trace holds only EventType codes.
        n_types = len(EventType)
        joint = np.bincount(
            trace.source_ids.astype(np.int64) * n_types + trace.etypes,
            minlength=n_sources * n_types,
        ).reshape(n_sources, n_types)
        for sid, name in enumerate(trace.sources):
            c = int(counts[sid])
            if c == 0:
                continue
            self._counts[name] = self._counts.get(name, 0) + c
            self._durations[name] = self._durations.get(name, 0.0) + float(sums[sid])
            etype_hist = self._etypes.setdefault(name, {})
            row = joint[sid]
            for code in np.flatnonzero(row).tolist():
                etype_hist[code] = etype_hist.get(code, 0) + int(row[code])

    def build(self) -> NoiseProfile:
        """Finish accumulation and return the profile."""
        stats: dict[str, SourceStats] = {}
        for name, count in self._counts.items():
            hist = self._etypes[name]
            etype = EventType(max(hist, key=lambda k: (hist[k], -k)))
            stats[name] = SourceStats(
                source=name,
                etype=etype,
                rate_hz=count / self.total_window,
                mean_duration=self._durations[name] / count,
                total_events=count,
            )
        return NoiseProfile(stats, self.n_runs, self.total_window)


def build_profile(traces: Iterable[Trace]) -> NoiseProfile:
    """Convenience wrapper: profile from an in-memory trace collection."""
    acc = ProfileAccumulator()
    for t in traces:
        acc.add(t)
    return acc.build()
