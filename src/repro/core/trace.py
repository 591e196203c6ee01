"""Columnar OSnoise-style traces.

A :class:`Trace` is the record of one workload execution under tracing:
every noise event observed on every logical CPU (the tracer labels
*all* non-workload activity as noise — it cannot tell inherent
background hum from the interesting anomalies, which is exactly why the
pipeline needs the averaging/refinement stages), plus the run's total
execution time.

Traces are stored columnar (numpy arrays plus an interned source-name
table) because a single desktop run produces tens of thousands of
timer-tick records; the profile and refinement stages are vectorised
over these columns.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.events import EventType

__all__ = ["Trace"]


class Trace:
    """One run's noise events plus its execution time.

    Events are kept sorted by ``(start, cpu)``.  Columns:

    * ``cpus`` — logical CPU of each event (int32);
    * ``etypes`` — :class:`EventType` codes (int8);
    * ``source_ids`` — index into :attr:`sources` (int32);
    * ``starts`` / ``durations`` — seconds (float64), finite, and
      non-negative for durations.

    Any other code, id or time, or an ``exec_time`` that is not
    positive and finite, is rejected with :class:`ValueError`.
    """

    __slots__ = ("cpus", "etypes", "source_ids", "starts", "durations", "sources", "exec_time", "meta")

    def __init__(
        self,
        cpus: np.ndarray,
        etypes: np.ndarray,
        source_ids: np.ndarray,
        starts: np.ndarray,
        durations: np.ndarray,
        sources: Sequence[str],
        exec_time: float,
        meta: Optional[dict] = None,
    ):
        n = len(starts)
        for arr, label in ((cpus, "cpus"), (etypes, "etypes"), (source_ids, "source_ids"), (durations, "durations")):
            if len(arr) != n:
                raise ValueError(f"column length mismatch: {label} has {len(arr)}, starts has {n}")
        # NaN fails this comparison too
        if not 0 < exec_time < np.inf:
            raise ValueError(f"exec_time must be positive and finite: {exec_time!r}")
        etypes = np.asarray(etypes, dtype=np.int8)
        source_ids = np.asarray(source_ids, dtype=np.int32)
        starts = np.asarray(starts, dtype=np.float64)
        durations = np.asarray(durations, dtype=np.float64)
        if n:
            if not (np.isfinite(starts).all() and np.isfinite(durations).all()):
                raise ValueError("non-finite event start or duration")
            if (durations < 0).any():
                raise ValueError("negative event duration")
            # as unsigned, a negative code or id wraps past every valid one
            if etypes.view(np.uint8).max() >= len(EventType):
                bad = sorted(set(etypes.tolist()) - set(map(int, EventType)))
                raise ValueError(f"unknown etype codes: {bad}")
            if source_ids.view(np.uint32).max() >= len(sources):
                bad = sorted({i for i in source_ids.tolist() if not 0 <= i < len(sources)})
                raise ValueError(f"source ids outside the {len(sources)} sources: {bad}")
        order = np.lexsort((np.asarray(cpus), starts))
        self.cpus = np.ascontiguousarray(np.asarray(cpus, dtype=np.int32)[order])
        self.etypes = np.ascontiguousarray(etypes[order])
        self.source_ids = np.ascontiguousarray(source_ids[order])
        self.starts = np.ascontiguousarray(starts[order])
        self.durations = np.ascontiguousarray(durations[order])
        self.sources = list(sources)
        self.exec_time = float(exec_time)
        self.meta = dict(meta) if meta else {}

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[int, int, str, float, float]],
        exec_time: float,
        meta: Optional[dict] = None,
    ) -> "Trace":
        """Build from ``(cpu, etype_code, source, start, duration)`` rows."""
        cpus, etypes, sids, starts, durs = [], [], [], [], []
        intern: dict[str, int] = {}
        sources: list[str] = []
        for cpu, etype, source, start, duration in records:
            sid = intern.get(source)
            if sid is None:
                sid = intern[source] = len(sources)
                sources.append(source)
            cpus.append(cpu)
            etypes.append(int(etype))
            sids.append(sid)
            starts.append(start)
            durs.append(duration)
        return cls(
            np.array(cpus, dtype=np.int32),
            np.array(etypes, dtype=np.int8),
            np.array(sids, dtype=np.int32),
            np.array(starts, dtype=np.float64),
            np.array(durs, dtype=np.float64),
            sources,
            exec_time,
            meta,
        )

    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Number of recorded noise events."""
        return len(self.starts)

    def iter_records(self) -> Iterator[tuple[int, EventType, str, float, float]]:
        """Yield ``(cpu, EventType, source, start, duration)`` rows."""
        for i in range(self.n_events):
            yield (
                int(self.cpus[i]),
                EventType(int(self.etypes[i])),
                self.sources[self.source_ids[i]],
                float(self.starts[i]),
                float(self.durations[i]),
            )

    def select(self, mask: np.ndarray) -> "Trace":
        """Sub-trace of events where ``mask`` is true (sources re-interned)."""
        kept_sids = self.source_ids[mask]
        uniq, inverse = np.unique(kept_sids, return_inverse=True)
        return Trace(
            self.cpus[mask],
            self.etypes[mask],
            inverse.astype(np.int32),
            self.starts[mask],
            self.durations[mask],
            [self.sources[i] for i in uniq],
            self.exec_time,
            self.meta,
        )

    def total_noise_time(self) -> float:
        """Sum of all event durations (CPU-seconds of noise)."""
        return float(self.durations.sum())

    def events_of_source(self, source: str) -> np.ndarray:
        """Boolean mask of events coming from ``source``."""
        try:
            sid = self.sources.index(source)
        except ValueError:
            return np.zeros(self.n_events, dtype=bool)
        return self.source_ids == sid

    # ------------------------------------------------------------------
    # OSnoise text format (paper Fig. 3)
    # ------------------------------------------------------------------
    def to_osnoise_text(self, limit: Optional[int] = None) -> str:
        """Render events in the paper's Fig.-3 layout."""
        lines = ["CPU  Event Type      Source            Start Time       Duration"]
        n = self.n_events if limit is None else min(limit, self.n_events)
        for i in range(n):
            etype = EventType(int(self.etypes[i]))
            dur_ns = self.durations[i] * 1e9
            lines.append(
                f"{int(self.cpus[i]):03d}  {etype.label:<14} {self.sources[self.source_ids[i]]:<17} "
                f"{self.starts[i]:.9f}   {dur_ns:.0f} ns"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "exec_time": self.exec_time,
            "sources": self.sources,
            "cpus": self.cpus.tolist(),
            "etypes": self.etypes.tolist(),
            "source_ids": self.source_ids.tolist(),
            "starts": self.starts.tolist(),
            "durations": self.durations.tolist(),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            np.asarray(data["cpus"], dtype=np.int32),
            np.asarray(data["etypes"], dtype=np.int8),
            np.asarray(data["source_ids"], dtype=np.int32),
            np.asarray(data["starts"], dtype=np.float64),
            np.asarray(data["durations"], dtype=np.float64),
            data["sources"],
            data["exec_time"],
            data.get("meta"),
        )

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Trace events={self.n_events} exec_time={self.exec_time:.6f}s sources={len(self.sources)}>"

