"""Tests for the pluggable execution backends.

The load-bearing property is **worker-invariant determinism**:
``times[i]`` / ``anomalies[i]`` must be bit-identical for jobs=1,
jobs=4, and any chunk size — seeds derive from per-rep spawn keys and
results are written back by rep index.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.harness.chunkrunner import RepResult, rep_seed
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    chunk_indices,
    chunk_range,
    get_executor,
    resolve_chunk_size,
    resolve_jobs,
)
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.noise import TraceReplaySource


def spec(**kw):
    defaults = dict(platform="intel-9700kf", workload="nbody", model="omp", reps=6, seed=42)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def tiny_config():
    return NoiseConfig(
        {
            cpu: [
                ConfigEvent(
                    start=0.01 * (cpu + 1),
                    duration=2e-3,
                    policy="SCHED_FIFO",
                    rt_priority=90,
                    weight=1.0,
                    etype=EventType.IRQ,
                    source="test",
                )
            ]
            for cpu in range(4)
        }
    )


@pytest.fixture(scope="module")
def pool4():
    ex = ParallelExecutor(4)
    yield ex
    ex.close()


# ----------------------------------------------------------------------
# seeding and chunking primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_rep_seed_matches_seedsequence_spawn(self):
        parent = np.random.SeedSequence(2025)
        for i, child in enumerate(parent.spawn(8)):
            a = np.random.default_rng(child).random(4)
            b = np.random.default_rng(rep_seed(2025, i)).random(4)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("reps,jobs,chunk_size", [(10, 4, None), (10, 4, 1), (10, 4, 3), (1, 4, None), (5, 8, None), (7, 2, 100)])
    def test_chunks_partition_exactly(self, reps, jobs, chunk_size):
        chunks = chunk_indices(reps, jobs, chunk_size)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(reps))

    def test_zero_reps_no_chunks(self):
        assert chunk_indices(0, 4) == []

    def test_chunks_partition_property(self):
        """Property sweep: for every (reps, jobs, chunk_size) combination
        the chunks are non-empty, in-order, contiguous ranges that
        partition ``range(reps)`` exactly — chunking can never drop,
        duplicate, or reorder a rep."""
        for reps in (0, 1, 2, 3, 7, 16, 33, 100):
            for jobs in (1, 2, 3, 8, 64):
                for chunk_size in (None, 1, 2, 5, 7, 1000):
                    chunks = chunk_indices(reps, jobs, chunk_size)
                    assert all(len(c) > 0 for c in chunks)
                    assert all(c.step == 1 for c in chunks)
                    flat = [i for c in chunks for i in c]
                    assert flat == list(range(reps)), (reps, jobs, chunk_size)

    def test_chunk_range_offset_windows(self):
        """Adaptive batches dispatch non-zero-based windows."""
        chunks = chunk_range(range(8, 14), 2, None)
        assert [i for c in chunks for i in c] == list(range(8, 14))

    def test_chunk_degenerate_inputs_fail_loudly(self):
        with pytest.raises(ValueError):
            chunk_indices(4, 0)
        with pytest.raises(ValueError):
            chunk_indices(4, -1)
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)
        with pytest.raises(ValueError):
            chunk_indices(4, 2, chunk_size=0)
        with pytest.raises(ValueError):
            chunk_indices(4, 2, chunk_size=-3)
        with pytest.raises(ValueError):
            chunk_range(range(0, 8, 2), 2)  # non-unit step

    def test_oversized_chunk_is_single_chunk(self):
        assert chunk_indices(5, 4, chunk_size=100) == [range(0, 5)]

    def test_resolve_chunk_size_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "3")
        assert resolve_chunk_size() == 3
        assert resolve_chunk_size(5) == 5  # explicit wins
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "0")
        assert resolve_chunk_size() is None  # 0 = automatic
        monkeypatch.delenv("REPRO_CHUNK_SIZE")
        assert resolve_chunk_size() is None

    def test_resolve_chunk_size_rejects_bad_values(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_chunk_size(0)
        with pytest.raises(ValueError):
            resolve_chunk_size(-2)
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "-1")
        with pytest.raises(ValueError):
            resolve_chunk_size()

    def test_env_chunk_size_drives_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_SIZE", "2")
        assert chunk_indices(6, 4) == [range(0, 2), range(2, 4), range(4, 6)]

    def test_resolve_jobs_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_resolve_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_resolve_jobs_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_resolve_jobs_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_get_executor_serial_for_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(get_executor(), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)

    def test_get_executor_shares_pools(self):
        a = get_executor(2)
        b = get_executor(2)
        assert a is b and isinstance(a, ParallelExecutor) and a.jobs == 2

    def test_shared_executor_survives_other_callers_close(self):
        """Regression: ``with get_executor(n):`` in one caller must not
        shut down the warm pool other callers still hold."""
        ex = get_executor(2)
        run_experiment(spec(reps=4), executor=ex)  # warm the pool
        pool = ex._pool
        assert pool is not None
        with get_executor(2) as same:
            assert same is ex
        assert ex._pool is pool  # __exit__ did not tear it down
        ex.close()
        assert ex._pool is pool  # explicit close() is a no-op too
        rs = run_experiment(spec(reps=4), executor=ex)
        assert len(rs.times) == 4

    def test_private_executor_close_still_real(self):
        ex = ParallelExecutor(2)
        run_experiment(spec(reps=2), executor=ex)
        ex.close()
        assert ex._pool is None


# ----------------------------------------------------------------------
# worker-invariant determinism
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_baseline_parallel_bitwise_equal(self, pool4):
        s = spec(reps=8)
        serial = run_experiment(s, executor=SerialExecutor())
        parallel = run_experiment(s, executor=pool4)
        np.testing.assert_array_equal(serial.times, parallel.times)
        assert serial.anomalies == parallel.anomalies

    def test_injected_parallel_bitwise_equal(self, pool4):
        s = spec(workload="babelstream", reps=6, seed=7)
        noise = TraceReplaySource(tiny_config())
        serial = run_experiment(s, noise=noise, executor=SerialExecutor())
        parallel = run_experiment(s, noise=noise, executor=pool4)
        np.testing.assert_array_equal(serial.times, parallel.times)
        assert serial.anomalies == parallel.anomalies
        assert parallel.injected

    def test_composite_stack_worker_invariant(self):
        """A heterogeneous NoiseStack (replay + I/O + memory + ambient)
        stays bit-identical across backends and worker counts: each
        source draws from a per-rep, per-source child RNG."""
        from repro.noise import (
            BackgroundNoiseSource,
            HpasMemoryBandwidthSource,
            IoBurst,
            IoNoiseSource,
            NoiseStack,
        )

        stack = NoiseStack(
            [
                TraceReplaySource(tiny_config()),
                IoNoiseSource([IoBurst(start=0.01, duration=0.1, irq_cpus=(0, 1))]),
                HpasMemoryBandwidthSource(start=0.0, duration=0.15, bandwidth_gbs=12.0),
                BackgroundNoiseSource.preset("desktop-nogui", intensity=0.5),
            ]
        )
        s = spec(workload="schedbench", reps=6, seed=13)
        serial = run_experiment(s, noise=stack, executor=SerialExecutor())
        assert serial.injected
        for jobs in (2, 3, 4):
            ex = ParallelExecutor(jobs)
            try:
                rs = run_experiment(s, noise=stack, executor=ex)
            finally:
                ex.close()
            np.testing.assert_array_equal(serial.times, rs.times)
            assert serial.anomalies == rs.anomalies

    def test_chunk_size_invariance(self):
        s = spec(reps=5, seed=3)
        reference = run_experiment(s, executor=SerialExecutor())
        for chunk_size in (1, 2, 100):
            ex = ParallelExecutor(2, chunk_size=chunk_size)
            try:
                rs = run_experiment(s, executor=ex)
            finally:
                ex.close()
            np.testing.assert_array_equal(reference.times, rs.times)

    def test_env_selected_backend_equivalent(self, monkeypatch):
        s = spec(reps=4, seed=9)
        serial = run_experiment(s, executor=SerialExecutor())
        monkeypatch.setenv("REPRO_JOBS", "2")
        rs = run_experiment(s)
        np.testing.assert_array_equal(serial.times, rs.times)


# ----------------------------------------------------------------------
# chunking edge cases through the real backend
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_fewer_reps_than_jobs(self, pool4):
        s = spec(reps=2)
        serial = run_experiment(s, executor=SerialExecutor())
        parallel = run_experiment(s, executor=pool4)
        np.testing.assert_array_equal(serial.times, parallel.times)

    def test_single_rep(self, pool4):
        s = spec(reps=1)
        serial = run_experiment(s, executor=SerialExecutor())
        parallel = run_experiment(s, executor=pool4)
        np.testing.assert_array_equal(serial.times, parallel.times)
        assert len(parallel.times) == 1

    def test_on_run_ordered_posthoc_delivery(self, pool4):
        s = spec(reps=5)
        seen = []
        run_experiment(s, on_run=lambda i, r: seen.append((i, r.trace is not None)), executor=pool4)
        assert seen == [(i, True) for i in range(5)]

    def test_on_run_without_tracing(self, pool4):
        s = spec(reps=3, tracing=False)
        seen = []
        run_experiment(s, on_run=lambda i, r: seen.append(r.trace), executor=pool4)
        assert seen == [None, None, None]


# ----------------------------------------------------------------------
# pickling (the worker boundary)
# ----------------------------------------------------------------------
class TestPickling:
    def test_spec_round_trip(self):
        s = spec(workload_params={"iters": 3}, n_threads=4, anomaly_prob=0.5)
        assert pickle.loads(pickle.dumps(s)) == s

    def test_noise_config_round_trip(self):
        config = tiny_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone.to_json(indent=0) == config.to_json(indent=0)

    def test_rep_result_round_trip(self):
        rr = RepResult(index=3, exec_time=1.25, anomaly="thermal", run=None)
        assert pickle.loads(pickle.dumps(rr)) == rr
