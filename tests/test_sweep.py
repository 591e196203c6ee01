"""Unit tests for the parameter-sweep utility."""

import pytest

from repro import telemetry
from repro.harness.adaptive import AdaptivePolicy
from repro.harness.cache import ResultCache
from repro.harness.executor import ParallelExecutor, SerialExecutor, get_executor
from repro.harness.experiment import ExperimentSpec
from repro.harness.faults import RepExecutionError
from repro.harness.sweep import _Lookahead, sweep


@pytest.fixture
def base():
    return ExperimentSpec(
        platform="intel-9700kf", workload="nbody", reps=2, seed=5, anomaly_prob=0.0
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


class TestSweep:
    def test_grid_cardinality(self, base, cache):
        r = sweep(base, cache=cache, strategy=("Rm", "TP"), model=("omp", "sycl"))
        assert len(r) == 4
        assert r.axes == ("strategy", "model")
        assert ("Rm", "omp") in r.points

    def test_results_reflect_axes(self, base, cache):
        r = sweep(base, cache=cache, model=("omp", "sycl"))
        by_model = dict(zip((p[0] for p in r.points), r.results))
        assert by_model["omp"].mean < by_model["sycl"].mean

    def test_best_by_mean(self, base, cache):
        r = sweep(base, cache=cache, model=("omp", "sycl"))
        point, rs = r.best("mean")
        assert point == ("omp",)

    def test_best_by_other_key(self, base, cache):
        r = sweep(base, cache=cache, strategy=("Rm", "RmHK2"))
        point, rs = r.best("maximum")
        assert point in r.points

    def test_render(self, base, cache):
        text = sweep(base, cache=cache, strategy=("Rm",)).render("demo")
        assert "demo" in text and "mean (s)" in text

    def test_rejects_unknown_axis(self, base, cache):
        with pytest.raises(ValueError):
            sweep(base, cache=cache, color=("red",))

    def test_rejects_empty_grid(self, base, cache):
        with pytest.raises(ValueError):
            sweep(base, cache=cache)

    @pytest.mark.parametrize(
        "axes",
        [dict(model="omp"), dict(model=()), dict(strategy=("Rm",), seed=5)],
        ids=["string", "empty", "scalar"],
    )
    def test_rejects_bad_axis_values(self, base, cache, axes):
        """A string is not iterated character by character, and an empty
        axis is not an empty grid: each names its axis before anything runs."""
        bad = list(axes)[-1]
        with pytest.raises(ValueError, match=f"axis '{bad}'"):
            sweep(base, cache=cache, **axes)
        assert cache.stats()["misses"] == 0

    def test_uses_cache(self, base, cache):
        sweep(base, cache=cache, model=("omp",))
        sweep(base, cache=cache, model=("omp",))
        assert cache.stats()["hits"] >= 1

    def test_thread_axis(self, base, cache):
        r = sweep(base, cache=cache, n_threads=(2, 8))
        by_threads = dict(zip((p[0] for p in r.points), r.results))
        assert by_threads[2].mean > by_threads[8].mean


# ----------------------------------------------------------------------
# look-ahead on a process pool: the next miss's chunks start early
# ----------------------------------------------------------------------
GRID = dict(strategy=("Rm", "TP"), model=("omp", "sycl"))


@pytest.fixture
def pool_base():
    return ExperimentSpec(platform="intel-9700kf", workload="nbody", reps=6, seed=9)


@pytest.fixture
def pool2():
    ex = ParallelExecutor(2)
    yield ex
    ex.close()


class _StartSpy:
    """Records every range a sweep makes ahead of its grid point, and
    every future any pool range submits."""

    def __init__(self, monkeypatch):
        self.batches = []
        self.futures = []
        start = _Lookahead._start_upcoming
        submit = ParallelExecutor._submit

        def spy_start(ahead):
            start(ahead)
            if ahead.ahead is not None:
                self.batches.append(ahead.ahead[1])

        def spy_submit(pool, futures, *args):
            n = len(futures)
            submit(pool, futures, *args)
            self.futures.extend(futures[n:])

        monkeypatch.setattr(_Lookahead, "_start_upcoming", spy_start)
        monkeypatch.setattr(ParallelExecutor, "_submit", staticmethod(spy_submit))

    def points(self):
        return [(b.args[0].strategy, b.args[0].model) for b in self.batches]

    def none_running(self):
        """No future of the sweep is left running."""
        return all(f.done() for f in self.futures)


def _entries(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestLookahead:
    def test_pooled_sweep_matches_serial_bit_for_bit(self, pool_base, pool2, tmp_path):
        pooled = sweep(pool_base, cache=ResultCache(tmp_path / "pool"), executor=pool2, **GRID)
        serial = sweep(
            pool_base, cache=ResultCache(tmp_path / "serial"), executor=SerialExecutor(), **GRID
        )
        for a, b in zip(pooled.results, serial.results):
            assert a.times.tobytes() == b.times.tobytes()
            assert a.anomalies == b.anomalies
        assert _entries(tmp_path / "pool") == _entries(tmp_path / "serial")

    def test_each_later_miss_is_started_once_and_adopted(
        self, pool_base, pool2, tmp_path, monkeypatch
    ):
        spy = _StartSpy(monkeypatch)
        sweep(pool_base, cache=ResultCache(tmp_path), executor=pool2, **GRID)
        assert spy.points() == [("Rm", "sycl"), ("TP", "omp"), ("TP", "sycl")]
        # every started range was consumed: one submit per chunk, nothing redone
        assert all(not b.chunks for b in spy.batches) and spy.none_running()
        stats = pool2.stats()
        assert stats["pickle_chunks"] == 4 * len(pool2._chunks(range(6)))
        assert stats["chunk_redispatches"] == stats["pool_rebuilds"] == 0

    def test_hits_are_never_started_and_a_warm_pass_looks_nothing_up_twice(
        self, pool_base, pool2, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        sweep(pool_base, cache=cache, executor=pool2, strategy=("TP",), model=("omp",))
        spy = _StartSpy(monkeypatch)
        sweep(pool_base, cache=cache, executor=pool2, **GRID)
        # (TP, omp) is a hit: it is not started, and as it dispatches
        # nothing it starts nothing either, so (TP, sycl) runs on its own
        assert spy.points() == [("Rm", "sycl")]

        spy.batches.clear()
        resolved = []
        resolve = ResultCache.resolve_cell
        monkeypatch.setattr(
            ResultCache, "resolve_cell",
            lambda self, *a, **k: resolved.append(a) or resolve(self, *a, **k),
        )
        sweep(pool_base, cache=cache, executor=pool2, **GRID)
        assert spy.batches == [] and len(resolved) == 4

    def test_adaptive_points_are_never_started(self, pool_base, pool2, tmp_path, monkeypatch):
        spy = _StartSpy(monkeypatch)
        adaptive = pool_base.with_(
            adaptive=AdaptivePolicy(target_rel_hw=1e-9, min_reps=2, batch=3), reps=6
        )
        pooled = sweep(adaptive, cache=ResultCache(tmp_path), executor=pool2, **GRID)
        assert spy.batches == []
        serial = sweep(
            adaptive, cache=ResultCache(tmp_path / "serial"), executor=SerialExecutor(), **GRID
        )
        for a, b in zip(pooled.results, serial.results):
            assert a.times.tobytes() == b.times.tobytes()

    def test_a_failing_point_cancels_the_started_one(
        self, pool_base, pool2, tmp_path, monkeypatch
    ):
        """A fail-fast error in the last chunk of the first point: the
        second point's batch is cancelled, none of its futures is left
        running, and the executor serves the next sweep correctly."""
        from repro.harness import executor as executor_mod

        run_chunk = executor_mod.run_chunk

        def failing(spec, noise, indices, *rest):
            if spec.seed == 9 and spec.model == "omp" and indices.stop == 6:
                raise RuntimeError("injected")
            return run_chunk(spec, noise, indices, *rest)

        # set before the pool forks, so the workers inherit it
        monkeypatch.setattr(executor_mod, "run_chunk", failing)
        spy = _StartSpy(monkeypatch)
        with pytest.raises(RepExecutionError, match="injected"):
            sweep(pool_base, cache=ResultCache(tmp_path / "a"), executor=pool2, **GRID)
        assert spy.points() == [("Rm", "sycl")]
        assert spy.none_running()

        good = pool_base.with_(seed=10)  # the same workers, which fail seed 9 only
        pooled = sweep(good, cache=ResultCache(tmp_path / "b"), executor=pool2, **GRID)
        serial = sweep(good, cache=ResultCache(tmp_path / "c"), executor=SerialExecutor(), **GRID)
        for a, b in zip(pooled.results, serial.results):
            assert a.times.tobytes() == b.times.tobytes()

    def test_a_point_that_became_a_hit_cancels_its_batch(
        self, pool_base, pool2, tmp_path, monkeypatch
    ):
        """Another writer stores the next point between its start and its
        lookup: the point is served from the cache and its batch is
        cancelled rather than left in the pool."""
        cache = ResultCache(tmp_path)
        spy = _StartSpy(monkeypatch)
        get_or_run = ResultCache.get_or_run
        calls = []

        def racing(self, spec, **kwargs):
            calls.append(spec)
            if len(calls) == 2:  # another process finishes this point first
                other = ResultCache(tmp_path)
                other.get_or_run(spec, executor=SerialExecutor())
            return get_or_run(self, spec, **kwargs)

        monkeypatch.setattr(ResultCache, "get_or_run", racing)
        sweep(pool_base, cache=cache, executor=pool2, model=("omp", "sycl"))
        assert cache.stats()["hits"] == 1
        assert len(spy.batches) == 1 and spy.none_running()

    def test_concurrent_sweeps_on_a_shared_pool_keep_their_own_points(self, tmp_path):
        """get_executor() hands one pool to concurrent campaign threads;
        each thread's sweep consumes only the ranges it made itself."""
        import threading

        ex = get_executor(2)
        bases = [ExperimentSpec(platform="intel-9700kf", workload="nbody", reps=6, seed=s)
                 for s in (21, 21, 22)]
        out = [None] * len(bases)

        def run(i):
            out[i] = sweep(bases[i], cache=ResultCache(tmp_path / str(i)), executor=ex, **GRID)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(bases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        for i, b in enumerate(bases):
            serial = sweep(b, cache=ResultCache(tmp_path / f"s{i}"),
                           executor=SerialExecutor(), **GRID)
            for a, s in zip(out[i].results, serial.results):
                assert a.times.tobytes() == s.times.tobytes()


class TestLookaheadTelemetry:
    @pytest.fixture(autouse=True)
    def _telemetry_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        telemetry.configure(enabled=True)
        telemetry.reset()
        yield
        telemetry.configure(enabled=False)
        telemetry.reset()

    @staticmethod
    def _totals(ex, cache):
        """Spans by name, and every counter: the executor's and the
        cache's own, and the shared groups the workers ship back."""
        names = {}
        for e in telemetry.drain_events():
            if e["name"] != "sweep":
                names[e["name"]] = names.get(e["name"], 0) + 1
        shared = telemetry.counters_snapshot()
        for own in ("executor", "cache", "context"):  # context: varies with placement
            shared.pop(own, None)
        telemetry.reset()
        return names, shared, ex.stats(), cache.stats()

    def test_started_chunks_report_under_the_sweep_span(self, pool_base, tmp_path):
        ex = ParallelExecutor(2)
        try:
            sweep(pool_base, cache=ResultCache(tmp_path), executor=ex, **GRID)
        finally:
            ex.close()
        events = telemetry.events_snapshot()
        (top,) = [e for e in events if e["name"] == "sweep"]
        experiments = [e for e in events if e["name"] == "experiment"]
        first = min(experiments, key=lambda e: e["ts"])
        parents = {e["parent"] for e in events if e["name"] == "chunk"}
        # the first point dispatches its own chunks; the three started
        # ahead report under the sweep, none under an earlier point
        assert parents == {first["id"], top["id"]}
        n = len(ex._chunks(range(6)))
        assert sum(e["parent"] == top["id"] for e in events if e["name"] == "chunk") == 3 * n

    def test_span_and_counter_totals_match_one_point_at_a_time(self, pool_base, tmp_path):
        totals = []
        for run_grid in ("one at a time", "sweep"):
            cache = ResultCache(tmp_path / run_grid)
            ex = ParallelExecutor(2)
            try:
                if run_grid == "sweep":
                    sweep(pool_base, cache=cache, executor=ex, **GRID)
                else:
                    for strategy in GRID["strategy"]:
                        for model in GRID["model"]:
                            spec = pool_base.with_(strategy=strategy, model=model)
                            cache.get_or_run(spec, executor=ex)
            finally:
                ex.close()
            totals.append(self._totals(ex, cache))
        assert totals[0] == totals[1]
