"""The in-process workloads and what every workload shares.

A workload is a fixed kind of input, generated from ``--seed``; the
program sees only the generated :class:`~repro.harness.experiment.ExperimentSpec`
values.  Each workload has three entry points:

* :meth:`Workload.ready` — what a cold start must finish before the
  workload can run (imports, the first ``resolve_context``, and for
  some a process pool or a worker fleet); ``setup_s`` times it;
* :meth:`Workload.measure` — the untraced pass.  It runs whole units
  (cells or cycles) until ``--seconds`` have passed and returns
  per-unit samples for the end-to-end metrics;
* :meth:`Workload.traced` — a fixed subset, run once untraced and once
  under the instruments of :mod:`bench.layers`.

Both passes feed the first units' results into a digest, so the digest
of a seed is the same in either pass and at any run length.

Time-based end-to-end samples are host-normalised: each unit is timed
between two runs of a fixed calibration loop, and its wall time is
scaled to what a host calibrating at
:data:`~bench.measure.REFERENCE_MOPS` would have taken.  Other tenants
of a shared host slow it down for seconds to minutes at a time; the
scaling cancels most of that, and the raw values stay in the record.
"""

from __future__ import annotations

import contextlib
import random
import time
from pathlib import Path
from typing import Iterator, Optional, Sequence

from bench.layers import Trace
from bench.measure import Digest, PairCalibrator, Timing, calibrate, same_floats, timed

#: the end-to-end metrics every workload reports, with their units
E2E_UNITS = {
    "reps_per_s": "reps/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """State of one pass: seed, time budget, failures and the digest."""

    def __init__(self, seed: int, seconds: float, quick: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        #: reasons the measurement itself does not count (outputs may
        #: still be correct)
        self.invalid: list[str] = []
        self.digest = Digest()
        #: every calibration taken during the pass, Mops/s
        self.speeds: list[float] = []
        #: how :meth:`timed` measures host speed; two-worker workloads
        #: swap in a :class:`~bench.measure.PairCalibrator`
        self.calibrator = calibrate

    def check(self, ok: bool, what: str) -> bool:
        """Count a failed operation when ``ok`` is false."""
        if not ok:
            self.failures.append(what)
        return ok

    def timed(self):
        """Time a unit of work between two host calibrations."""
        return timed(self.speeds, self.calibrator)

    def units(self, minimum: int, share: float = 1.0, cap: Optional[int] = None) -> Iterator[int]:
        """Unit indices: at least ``minimum``, then more until ``share``
        of ``--seconds`` has passed (quick runs stop at the minimum)."""
        end = time.perf_counter() + share * self.seconds
        i = 0
        while cap is None or i < cap:
            if i >= minimum and (self.quick or time.perf_counter() >= end):
                return
            yield i
            i += 1


class Workload:
    """Interface of one benchmark workload."""

    name = ""

    def ready(self, work: Path):
        """Context manager: bring the workload to the point where it
        could start, and tear that down on exit."""
        raise NotImplementedError

    def measure(self, run: Run) -> dict[str, list[float]]:
        """Untraced pass: samples for ``reps_per_s`` and
        ``latency_p50_ms``, plus record-only extras."""
        raise NotImplementedError

    def traced(self, run: Run) -> Trace:
        """Traced pass over the workload's fixed subset."""
        raise NotImplementedError


def samples(reps: Sequence[float], units: Sequence[Timing],
            latencies: Sequence[tuple[float, float]]) -> dict[str, list[float]]:
    """End-to-end samples from per-unit rep counts and timings and from
    ``(latency_ms, scale)`` pairs: host-normalised, with raw twins."""
    return {
        "reps_per_s": [r / t.ref for r, t in zip(reps, units)],
        "latency_p50_ms": [ms * scale for ms, scale in latencies],
        "raw_reps_per_s": [r / t.wall for r, t in zip(reps, units)],
        "raw_latency_p50_ms": [ms for ms, _ in latencies],
    }


def check_result(run: Run, rs, what: str) -> None:
    """Every rep of a result set completed with a finite time."""
    import numpy as np

    run.attempted += 1
    run.check(
        not rs.failures and bool(np.isfinite(rs.times).all()) and bool((rs.times > 0).all()),
        f"{what}: failed or non-finite reps",
    )


# ----------------------------------------------------------------------
# sim-minife
# ----------------------------------------------------------------------
def minife_cell(seed: int):
    """The scheduler-bound cell: A64FX miniFE, 12 traced reps."""
    from repro.harness.experiment import ExperimentSpec

    return ExperimentSpec(
        platform="a64fx", workload="minife", reps=12, seed=seed,
        tracing=True, workload_params={"cg_iters": 40},
    )


class SimMinife(Workload):
    """Serial minife cells with no cache: the simulator and nothing else."""

    name = "sim-minife"
    #: cells in the digest and in the traced subset
    PREFIX = 2

    @contextlib.contextmanager
    def ready(self, work: Path):
        from repro.harness.experiment import resolve_context

        resolve_context(minife_cell(0))
        yield

    def _cells(self, run: Run, indices) -> Iterator[tuple[Timing, object]]:
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import run_experiment

        executor = SerialExecutor()
        for i in indices:
            spec = minife_cell(run.seed + i)
            with run.timed() as timing:
                rs = run_experiment(spec, executor=executor)
            check_result(run, rs, f"{spec.label()} seed {spec.seed}")
            if i < self.PREFIX:
                run.digest.add(f"cell{i}", rs.times)
            yield timing, rs

    def measure(self, run: Run) -> dict[str, list[float]]:
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import run_experiment

        cells = list(self._cells(run, run.units(self.PREFIX)))
        first = cells[0][1]
        # Reps are seeded by position, so a 2-rep run of the first cell
        # must reproduce its first two reps bit for bit.
        prefix = run_experiment(first.spec.with_(reps=2), executor=SerialExecutor())
        run.check(same_floats(prefix.times, first.times[:2]), "minife rep-prefix mismatch")
        return samples(
            [len(rs.times) for _, rs in cells],
            [t for t, _ in cells],
            [(1e3 * t.wall, t.scale) for t, _ in cells],
        )

    def traced(self, run: Run) -> Trace:
        trace = Trace()
        plain = sum(t.wall for t, _ in self._cells(run, range(self.PREFIX)))
        run.digest = Digest()
        with trace.record():
            cells = list(self._cells(run, range(self.PREFIX)))
        trace.reps = sum(len(rs.times) for _, rs in cells)
        trace.values["trace.overhead_frac"] = sum(t.wall for t, _ in cells) / plain
        return trace


# ----------------------------------------------------------------------
# pipeline-nbody
# ----------------------------------------------------------------------
class PipelineNbody(Workload):
    """The paper's three stages on nbody: collect, configure, inject."""

    name = "pipeline-nbody"
    #: a cycle's cost varies by up to 25% with its seed (the generated
    #: config's event count) and by 10-20% with the host's speed within
    #: it, so cycles are kept short enough for about twenty of them in a
    #: run's median: at 60/30 reps (about ten cycles) runs spread by 18%
    #: IQR/median over ten seeds, at 30/15 by 7%
    COLLECT_REPS = 30
    INJECT_REPS = 15
    #: cycles in the digest and in the traced subset
    PREFIX = 1

    @staticmethod
    def spec(seed: int):
        from repro.harness.experiment import ExperimentSpec

        return ExperimentSpec(platform="amd-9950x3d", workload="nbody", seed=seed)

    @contextlib.contextmanager
    def ready(self, work: Path):
        import repro.core.pipeline  # noqa: F401 - the import is part of set-up
        from repro.harness.experiment import resolve_context

        resolve_context(self.spec(0))
        yield

    def _pipeline(self, spec, inject_reps: int):
        from repro.core.pipeline import NoiseInjectionPipeline
        from repro.harness.executor import SerialExecutor

        return NoiseInjectionPipeline(
            spec,
            collect_reps=self.COLLECT_REPS,
            inject_reps=inject_reps,
            executor=SerialExecutor(),
        )

    def _cycles(self, run: Run, indices) -> Iterator[tuple[Timing, object]]:
        for i in indices:
            spec = self.spec(run.seed + i)
            with run.timed() as timing:
                result = self._pipeline(spec, self.INJECT_REPS).run()
            label = f"pipeline {spec.label()} seed {spec.seed}"
            check_result(run, result.injected, label)
            run.check(bool(result.collection.exec_times.size), f"{label}: nothing collected")
            if i < self.PREFIX:
                run.digest.add(f"collect{i}", result.collection.exec_times)
                run.digest.add(f"inject{i}", result.injected.times)
                run.digest.add_text(f"config{i}", result.config.to_json())
            yield timing, result

    @staticmethod
    def reps(result) -> int:
        return len(result.collection.exec_times) + len(result.injected.times)

    def measure(self, run: Run) -> dict[str, list[float]]:
        # Only the first cycle's result is kept, so peak RSS does not
        # grow with the number of cycles a run fits.
        first, reps, timings = None, [], []
        for timing, result in self._cycles(run, run.units(self.PREFIX)):
            first = result if first is None else first
            reps.append(self.reps(result))
            timings.append(timing)
        # Replaying the first cycle's config for 5 reps must reproduce
        # the first 5 injected reps bit for bit.
        spec = self.spec(run.seed)
        replay = self._pipeline(spec, 5).inject(spec=spec, config=first.config)
        run.check(
            same_floats(replay.times, first.injected.times[:5]), "inject replay mismatch"
        )
        return samples(reps, timings, [(1e3 * t.wall, t.scale) for t in timings])

    def traced(self, run: Run) -> Trace:
        trace = Trace()
        plain = sum(t.wall for t, _ in self._cycles(run, range(self.PREFIX)))
        run.digest = Digest()
        with trace.record():
            cycles = list(self._cycles(run, range(self.PREFIX)))
        results = [r for _, r in cycles]
        trace.reps = sum(self.reps(r) for r in results)
        n = len(results)
        stage_s = {"collect": 0.0, "configure": 0.0, "inject": 0.0}
        for span in trace.spans:
            if span["name"] in stage_s:
                stage_s[span["name"]] += span["dur"]
        for stage, seconds in stage_s.items():
            trace.values[f"core.{stage}_s"] = seconds / n
        trace.values.update({
            "core.collect_reps": sum(len(r.collection.exec_times) for r in results) / n,
            "core.config_events": sum(r.config.n_events for r in results) / n,
            "core.profile.self_s": trace.profile.self_time("core.profile") / n,
            "trace.overhead_frac": sum(t.wall for t, _ in cycles) / plain,
        })
        return trace


# ----------------------------------------------------------------------
# sweep-pool2
# ----------------------------------------------------------------------
#: pool width: one worker per CPU of the 2-CPU host the baseline is from
POOL_JOBS = 2


class SweepPool2(Workload):
    """A cached parameter sweep of tiny cells over a 2-worker pool."""

    name = "sweep-pool2"
    MODELS = ("omp", "sycl")
    #: seed values in the grid; each seed is one sub-grid of 12 cells
    SEEDS = 40
    #: sub-grids in the digest; the traced subset is ``TRACED`` sub-grids
    PREFIX = 2
    TRACED = 5
    #: share of ``--seconds`` for the cold pass; warm passes fill the rest
    COLD_SHARE = 0.8

    @staticmethod
    def base(seed: int):
        from repro.harness.experiment import ExperimentSpec

        return ExperimentSpec(platform="intel-9700kf", workload="nbody", reps=20, seed=seed)

    def _warm_up(self, executor) -> None:
        """Start both pool workers (the pool forks them on first use)."""
        from repro.harness.experiment import run_experiment

        run_experiment(self.base(0).with_(reps=2), executor=executor)

    @contextlib.contextmanager
    def ready(self, work: Path):
        import repro.harness.sweep  # noqa: F401 - the import is part of set-up
        from repro.harness.executor import ParallelExecutor
        from repro.harness.experiment import resolve_context

        resolve_context(self.base(0))
        with ParallelExecutor(POOL_JOBS) as executor:
            self._warm_up(executor)
            yield

    def _grid(self, run: Run, j: int, cache, executor) -> list:
        from repro.harness.sweep import sweep
        from repro.mitigation.strategies import STRATEGY_NAMES

        result = sweep(
            self.base(run.seed + j), cache=cache, executor=executor,
            strategy=STRATEGY_NAMES, model=self.MODELS,
        )
        return result.results

    def _cold(self, run: Run, indices, cache, executor) -> tuple[list, list[Timing]]:
        """Cold pass over sub-grids; returns the cells and one timing per sub-grid."""
        cells, timings = [], []
        for j in indices:
            with run.timed() as timing:
                results = self._grid(run, j, cache, executor)
            timings.append(timing)
            for k, rs in enumerate(results):
                check_result(run, rs, f"sweep {rs.spec.label()} seed {rs.spec.seed}")
                if j < self.PREFIX:
                    run.digest.add(f"grid{j}.{k}", rs.times)
            cells.extend(results)
        return cells, timings

    def _warm(self, run: Run, grids: int, cold: list, cache, executor) -> Timing:
        """One warm pass through ``cache``, fresh on the cold pass's
        directory.  Every cell must hit and match its cold result."""
        with run.timed() as timing:
            warm = [rs for j in range(grids) for rs in self._grid(run, j, cache, executor)]
        run.attempted += len(warm)
        run.check(cache.stats()["misses"] == 0, "warm pass missed the cache")
        for a, b in zip(cold, warm):
            run.check(same_floats(a.times, b.times), f"warm {a.spec.label()} differs from cold")
        return timing

    def _cross_check(self, run: Run, cold: list) -> None:
        """10 sampled cells re-run serially must match the pool bit for bit."""
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import run_experiment

        for rs in random.Random(run.seed).sample(cold, min(10, len(cold))):
            serial = run_experiment(rs.spec, executor=SerialExecutor())
            run.check(
                same_floats(serial.times, rs.times),
                f"pool {rs.spec.label()} seed {rs.spec.seed} differs from serial",
            )

    def measure(self, run: Run) -> dict[str, list[float]]:
        from repro.harness.cache import ResultCache
        from repro.harness.executor import ParallelExecutor

        from bench.layers import Timers

        cache_dir = run.work / "cache"
        timers = Timers()
        with PairCalibrator() as run.calibrator, ParallelExecutor(POOL_JOBS) as executor:
            self._warm_up(executor)
            with timers.wrap(ResultCache, "get_or_run"):
                cold, units = self._cold(
                    run, run.units(self.PREFIX, self.COLD_SHARE, cap=self.SEEDS),
                    ResultCache(cache_dir), executor,
                )
            warm = []
            warm_end = time.perf_counter() + (1 - self.COLD_SHARE) * run.seconds
            while not warm or (not run.quick and time.perf_counter() < warm_end):
                warm.append(self._warm(run, len(units), cold, ResultCache(cache_dir), executor))
        self._cross_check(run, cold)
        per_grid = len(cold) // len(units)
        cell_s = timers.samples["ResultCache.get_or_run"]
        out = samples(
            [sum(len(rs.times) for rs in cold[k:k + per_grid])
             for k in range(0, len(cold), per_grid)],
            units,
            [(1e3 * s, units[k // per_grid].scale) for k, s in enumerate(cell_s)],
        )
        out["cells_per_s"] = [per_grid / t.ref for t in units]
        out["warm_cells_per_s"] = [len(cold) / t.ref for t in warm]
        return out

    def traced(self, run: Run) -> Trace:
        from repro.harness.cache import ResultCache
        from repro.harness.executor import ParallelExecutor, SerialExecutor
        from repro.harness.experiment import run_experiment

        trace = Trace()
        grids = range(self.TRACED)
        with ParallelExecutor(POOL_JOBS) as executor:
            t0 = time.perf_counter()
            self._warm_up(executor)
            trace.values["harness.executor.pool_start_s"] = time.perf_counter() - t0
            plain_dir = run.work / "plain"
            cold, units = self._cold(run, grids, ResultCache(plain_dir), executor)
            plain = sum(t.wall for t in units)
            warm = self._warm(run, len(grids), cold, ResultCache(plain_dir), executor)
            trace.values["harness.cache.warm_cells_per_s"] = len(cold) / warm.wall
        t0 = time.perf_counter()
        for rs in cold:
            run_experiment(rs.spec, executor=SerialExecutor())
        serial = time.perf_counter() - t0
        run.digest = Digest()
        traced_dir = run.work / "traced"
        cold_cache, warm_cache = ResultCache(traced_dir), ResultCache(traced_dir)
        with ParallelExecutor(POOL_JOBS) as executor:
            self._warm_up(executor)
            before = executor.stats()
            with trace.record():
                cells, units = self._cold(run, grids, cold_cache, executor)
                self._warm(run, len(grids), cells, warm_cache, executor)
            after = executor.stats()
        shm = after["shm_chunks"] - before["shm_chunks"]
        chunks = shm + after["pickle_chunks"] - before["pickle_chunks"]
        n = len(cells)
        trace.reps = sum(len(rs.times) for rs in cells)
        entries = [p.stat().st_size for p in traced_dir.glob("*.json")]
        trace.values.update({
            "harness.executor.dispatch_s_per_cell": (plain - serial / POOL_JOBS) / n,
            "harness.executor.chunks_per_cell": chunks / n,
            "harness.executor.shm_share": shm / chunks if chunks else 0.0,
            "harness.executor.worker_busy_frac": serial / (POOL_JOBS * plain),
            "harness.cache.hits": warm_cache.stats()["hits"],
            "harness.cache.misses": cold_cache.stats()["misses"],
            "harness.cache.entry_bytes": sum(entries) / len(entries),
            "trace.overhead_frac": sum(t.wall for t in units) / plain,
        })
        return trace
