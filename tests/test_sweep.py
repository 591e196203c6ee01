"""Unit tests for the parameter-sweep utility."""

import pytest

from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentSpec
from repro.harness.sweep import sweep


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

    def test_uses_cache(self, base, cache):
        sweep(base, cache=cache, model=("omp",))
        sweep(base, cache=cache, model=("omp",))
        assert cache.stats()["hits"] >= 1

    def test_thread_axis(self, base, cache):
        r = sweep(base, cache=cache, n_threads=(2, 8))
        by_threads = dict(zip((p[0] for p in r.points), r.results))
        assert by_threads[2].mean > by_threads[8].mean
