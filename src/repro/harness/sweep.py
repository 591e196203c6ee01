"""Parameter sweeps over experiment specs.

A small grid-runner for exploratory studies beyond the pre-canned
campaigns: vary any subset of :class:`ExperimentSpec` fields, run each
combination (cached), and collect a tidy result table.

On a process pool the grid points still run one at a time, but a cell
boundary is no barrier: once a miss's chunks are in the pool, the
next grid point's chunks go in behind them if that point is a
fixed-rep miss too, and its own run adopts them (see
:meth:`~repro.harness.executor.ParallelExecutor.start`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro import telemetry as _telemetry
from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentSpec, ResultSet
from repro.harness.report import TableBuilder
from repro.harness.stats import Summary

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.executor import Executor
    from repro.harness.experiment import NoiseLike
    from repro.harness.faults import FaultPolicy

__all__ = ["SweepResult", "grid", "sweep"]

_SWEEPABLE = {
    "platform",
    "workload",
    "model",
    "strategy",
    "use_smt",
    "seed",
    "runlevel3",
    "anomaly_prob",
    "n_threads",
}


def grid(
    base: ExperimentSpec, axes: dict
) -> tuple[tuple[str, ...], list[tuple], list[ExperimentSpec]]:
    """The cartesian grid of ``axes`` over ``base``: axis names, points
    and specs, in the one enumeration order every sweep path shares."""
    if not axes:
        raise ValueError("sweep needs at least one axis")
    unknown = set(axes) - _SWEEPABLE
    if unknown:
        raise ValueError(f"cannot sweep over: {sorted(unknown)} (allowed: {sorted(_SWEEPABLE)})")
    names = tuple(axes)
    points = list(itertools.product(*(axes[n] for n in names)))
    return names, points, [base.with_(**dict(zip(names, p))) for p in points]


class _Lookahead:
    """The executor a sweep's misses run on: it passes each range to
    the sweep's executor and, once the range's first rep is back (its
    chunks are all in the pool by then), starts the next grid point
    if that point is a miss.  Hits never reach it, so an all-hit pass
    looks nothing up twice."""

    def __init__(self, executor, cache: ResultCache, noise, policy, parent):
        self.executor = executor
        self.cache = cache
        self.noise = noise
        self.policy = policy
        #: the ``sweep`` span, which a started point's chunks report under
        self.parent = parent
        #: the grid point after the current one, and what was started for it
        self.upcoming: Optional[ExperimentSpec] = None
        self.started = None

    def run_rep_range(self, spec, noise, indices, need_runs=False, policy=None):
        if self.executor is None:
            from repro.harness.executor import get_executor

            self.executor = get_executor()
        reps = self.executor.run_rep_range(spec, noise, indices, need_runs, policy)
        for n, rep in enumerate(reps):
            if n == 0 and self.upcoming is not None:
                self._start_upcoming()
            yield rep

    def _start_upcoming(self) -> None:
        upcoming, self.upcoming = self.upcoming, None
        if upcoming.adaptive is not None or self.executor.jobs <= 1:
            return  # an adaptive point's rep count is unknown until it stops
        spec, stack, key = self.cache.resolve_cell(upcoming, self.noise)
        if not self.cache.has_entry(key):
            self.started = self.executor.start(
                spec, stack, range(spec.reps), policy=self.policy, parent=self.parent
            )

    def get_or_run(self, spec: ExperimentSpec, upcoming: Optional[ExperimentSpec]) -> ResultSet:
        """Run one grid point; then cancel what was started for it, if
        its run did not adopt it (the point was a hit after all)."""
        started, self.started, self.upcoming = self.started, None, upcoming
        try:
            return self.cache.get_or_run(
                spec, noise=self.noise, executor=self, policy=self.policy
            )
        finally:
            if started is not None:
                started.cancel()

    def close(self) -> None:
        """Cancel the started point no grid point reached (the sweep raised)."""
        if self.started is not None:
            self.started.cancel()
            self.started = None


@dataclass
class SweepResult:
    """Outcome of one grid: axis names, points, and per-point results."""

    axes: tuple[str, ...]
    points: list[tuple]
    results: list[ResultSet]

    def __len__(self) -> int:
        return len(self.points)

    def summaries(self) -> list[Summary]:
        """Per-point statistical summaries."""
        return [r.summary for r in self.results]

    def best(self, key: str = "mean") -> tuple[tuple, ResultSet]:
        """The point minimising ``key`` ('mean', 'sd', 'cov', 'maximum')."""
        idx = min(
            range(len(self.results)), key=lambda i: getattr(self.results[i].summary, key)
        )
        return self.points[idx], self.results[idx]

    def render(self, title: str = "sweep") -> str:
        """Tidy table: one row per grid point."""
        tb = TableBuilder([*self.axes, "mean (s)", "sd (ms)", "max (s)"])
        for point, rs in zip(self.points, self.results):
            s = rs.summary
            tb.add_row(*point, f"{s.mean:.4f}", f"{s.sd * 1e3:.2f}", f"{s.maximum:.4f}")
        return f"{title}\n{tb.render()}"


def sweep(
    base: ExperimentSpec,
    noise: "NoiseLike" = None,
    cache: Optional[ResultCache] = None,
    executor: Optional["Executor"] = None,
    policy: Optional["FaultPolicy"] = None,
    service=None,
    shard: Optional[int] = None,
    **axes: Sequence,
) -> SweepResult:
    """Run the cartesian grid of ``axes`` values over ``base``.

    Every grid point replays the same ``noise`` (any registered
    source, a :class:`~repro.noise.base.NoiseStack`, or a sequence of
    sources).

    ``executor`` selects the execution backend for cache misses
    (default: ``REPRO_JOBS``).  Grid points are looked up, run and
    stored one at a time in grid order, so the result table is stable;
    on a process pool a miss's chunks are followed into the pool by
    those of the next grid point when that point is a fixed-rep miss,
    so workers do not idle at the cell boundary.  Results and cache
    entries are the same bytes either way.

    ``service`` (a :class:`~repro.service.ServiceClient`) routes the
    whole grid through the campaign service instead: every point is
    queued up front so workers pipeline across cells, then the table
    is collected from the shared store.  The result is bit-identical
    to the in-process path — same enumeration order, same content
    keys, same envelope round-trip.  ``shard`` (service path only)
    additionally splits cells above the threshold into chunk sub-jobs
    so several workers chew one cell concurrently — still
    bit-identical, because rep seeding is positional.

    ``policy`` contains per-point rep failures
    (:class:`~repro.harness.faults.FaultPolicy`); under ``skip`` a grid
    point may return a partial :class:`ResultSet` whose statistics
    aggregate its completed reps only.

    An :class:`~repro.harness.adaptive.AdaptivePolicy` on ``base``
    applies to every grid point: each cell stops as soon as its
    bootstrap CI is tight enough, and caches under the distinct
    adaptive key block.

    Example::

        sweep(base, strategy=("Rm", "TP"), model=("omp", "sycl"))
    """
    names, points, specs = grid(base, axes)
    if service is not None:
        return service.run_sweep(base, noise=noise, shard=shard, **axes)
    cache = cache if cache is not None else ResultCache()
    results: list[ResultSet] = []
    with _telemetry.span("sweep", axes=",".join(names), points=len(points)):
        ahead = _Lookahead(executor, cache, noise, policy, _telemetry.current_span_id())
        try:
            for spec, upcoming in zip(specs, specs[1:] + [None]):
                results.append(ahead.get_or_run(spec, upcoming))
        finally:
            ahead.close()
    return SweepResult(axes=names, points=points, results=results)
