"""Parameter sweeps over experiment specs.

A small grid-runner for exploratory studies beyond the pre-canned
campaigns: vary any subset of :class:`ExperimentSpec` fields, run each
combination (cached), and collect a tidy result table.
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
    from repro.harness.adaptive import AdaptivePolicy
    from repro.harness.executor import Executor
    from repro.harness.experiment import NoiseLike
    from repro.harness.faults import FaultPolicy

__all__ = ["SweepResult", "sweep"]

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
    adaptive: Optional["AdaptivePolicy"] = None,
    service=None,
    shard: Optional[int] = None,
    **axes: Sequence,
) -> SweepResult:
    """Run the cartesian grid of ``axes`` values over ``base``.

    Every grid point replays the same ``noise`` (any registered
    source, a :class:`~repro.noise.base.NoiseStack`, or a sequence of
    sources).

    ``executor`` selects the execution backend for cache misses
    (default: ``REPRO_JOBS``); grid points themselves run in order so
    the result table is stable.

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

    ``adaptive`` applies an
    :class:`~repro.harness.adaptive.AdaptivePolicy` to every grid
    point (points that already carry one keep theirs): each cell stops
    as soon as its bootstrap CI is tight enough, and caches under the
    distinct adaptive key block.

    Example::

        sweep(base, strategy=("Rm", "TP"), model=("omp", "sycl"))
    """
    if not axes:
        raise ValueError("sweep needs at least one axis")
    unknown = set(axes) - _SWEEPABLE
    if unknown:
        raise ValueError(f"cannot sweep over: {sorted(unknown)} (allowed: {sorted(_SWEEPABLE)})")
    if adaptive is not None and base.adaptive is None:
        base = base.with_(adaptive=adaptive)
    if service is not None:
        return service.run_sweep(base, noise=noise, shard=shard, **axes)
    cache = cache if cache is not None else ResultCache()
    names = tuple(axes)
    combos = list(itertools.product(*(axes[n] for n in names)))
    points: list[tuple] = []
    results: list[ResultSet] = []
    with _telemetry.span("sweep", axes=",".join(names), points=len(combos)):
        for combo in combos:
            spec = base.with_(**dict(zip(names, combo)))
            points.append(combo)
            results.append(
                cache.get_or_run(spec, noise=noise, executor=executor, policy=policy)
            )
    return SweepResult(axes=names, points=points, results=results)
