"""Tests for the pluggable execution backends.

The load-bearing property is **worker-invariant determinism**:
``times[i]`` / ``anomalies[i]`` must be bit-identical for jobs=1,
jobs=4, and any chunk partition — seeds derive from per-rep spawn keys and
results are written back by rep index.  Pool workers return every
result, traces included, through the pool's pickle channel, so the
pool results are checked against serial bit for bit, fault paths too.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.harness.chunkrunner import RepResult, rep_seed
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    chunk_range,
    get_executor,
    resolve_jobs,
)
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.faults import FaultPolicy
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

    @pytest.mark.parametrize("reps,jobs,size", [(10, 4, None), (10, 4, 1), (10, 4, 3), (1, 4, None), (5, 8, None), (7, 2, 100)])
    def test_chunks_partition_exactly(self, reps, jobs, size):
        """An explicit ``size`` goes through ``chunk_range``; ``None`` is
        the pool's derived partition for ``jobs`` workers."""
        if size is None:
            chunks = ParallelExecutor(jobs)._chunks(range(reps))
        else:
            chunks = chunk_range(range(reps), size)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(reps))

    def test_zero_reps_no_chunks(self):
        assert chunk_range(range(0), 4) == []

    def test_chunks_partition_property(self):
        """Property sweep: for every (reps, size) combination the chunks
        are non-empty, in-order, contiguous ranges of ``size`` reps (the
        last may be shorter) that partition ``range(reps)`` exactly —
        chunking can never drop, duplicate, or reorder a rep."""
        for reps in (0, 1, 2, 3, 7, 16, 33, 100):
            for size in (1, 2, 3, 5, 7, 13, 1000):
                chunks = chunk_range(range(reps), size)
                assert all(c.step == 1 for c in chunks)
                assert all(len(c) == size for c in chunks[:-1])
                assert all(0 < len(c) <= size for c in chunks[-1:])
                flat = [i for c in chunks for i in c]
                assert flat == list(range(reps)), (reps, size)

    def test_chunk_range_offset_windows(self):
        """Adaptive batches dispatch non-zero-based windows."""
        chunks = chunk_range(range(8, 14), 4)
        assert chunks == [range(8, 12), range(12, 14)]

    def test_chunk_degenerate_inputs_fail_loudly(self):
        with pytest.raises(ValueError):
            chunk_range(range(4), 0)
        with pytest.raises(ValueError):
            chunk_range(range(4), -3)
        with pytest.raises(ValueError):
            chunk_range(range(0, 8, 2), 2)  # non-unit step

    def test_oversized_chunk_is_single_chunk(self):
        assert chunk_range(range(5), 100) == [range(0, 5)]

    @pytest.mark.parametrize(
        "reps,jobs,sizes",
        [(9, 2, [2, 2, 2, 2, 1]), (9, 3, [1] * 9), (20, 2, [3] * 6 + [2]), (1, 4, [1]), (0, 2, [])],
    )
    def test_pool_derives_about_four_chunks_per_worker(self, reps, jobs, sizes):
        """The pool cuts ``n`` reps into ``ceil(n / (jobs * 4))``-rep
        chunks (no pool is started to compute them)."""
        chunks = ParallelExecutor(jobs)._chunks(range(reps))
        assert [len(c) for c in chunks] == sizes
        assert chunks == chunk_range(range(reps), sizes[0] if sizes else 1)

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

    def test_derived_partition_invariance(self):
        """Two and three workers cut 9 reps into different chunks (five
        of up to 2 reps, nine of 1); both match serial float for float."""
        s = spec(reps=9, seed=3)
        reference = [t.hex() for t in run_experiment(s, executor=SerialExecutor()).times]
        partitions = set()
        for jobs in (2, 3):
            with ParallelExecutor(jobs) as ex:
                partitions.add(tuple(ex._chunks(range(s.reps))))
                rs = run_experiment(s, executor=ex)
            assert [t.hex() for t in rs.times] == reference
        assert len(partitions) == 2

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
# results crossing the pool (one pickled path, checked against serial)
# ----------------------------------------------------------------------
def run_pool(s, **kw):
    """``s`` through a private 2-worker pool, plus its stats."""
    ex = ParallelExecutor(2)
    try:
        return run_experiment(s, executor=ex, **kw), ex.stats()
    finally:
        ex.close()


def collect_runs(s, executor, **kw):
    runs = {}
    result = run_experiment(
        s, executor=executor, on_run=lambda i, r: runs.__setitem__(i, r), **kw
    )
    return result, runs


def assert_runs_bitwise_equal(got: dict, ref: dict) -> None:
    assert got.keys() == ref.keys()
    for i, want in ref.items():
        run = got[i]
        assert run.exec_time.hex() == want.exec_time.hex()
        assert run.anomaly == want.anomaly
        assert run.migrations == want.migrations
        assert run.preemptions == want.preemptions
        assert run.meta == want.meta
        if want.trace is None:
            assert run.trace is None
            continue
        for col in ("starts", "durations", "cpus", "source_ids", "etypes"):
            np.testing.assert_array_equal(getattr(run.trace, col), getattr(want.trace, col))
        assert run.trace.sources == want.trace.sources
        assert run.trace.exec_time.hex() == want.trace.exec_time.hex()
        assert run.trace.meta == want.trace.meta


def failure_keys(rs) -> list:
    return sorted((f.index, f.phase, f.error, f.attempts) for f in rs.failures)


class TestPoolResults:
    @pytest.fixture(autouse=True)
    def _no_chaos(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)

    @pytest.mark.parametrize("workload,seed", [("nbody", 42), ("babelstream", 7)])
    def test_exec_times_float_hex_identical(self, workload, seed):
        s = spec(workload=workload, reps=8, seed=seed)
        serial = run_experiment(s, executor=SerialExecutor())
        pooled, stats = run_pool(s)
        assert stats["pickle_chunks"] > 1 and stats["shm_chunks"] == 0
        assert [t.hex() for t in pooled.times] == [t.hex() for t in serial.times]
        assert pooled.anomalies == serial.anomalies

    def test_anomaly_labels_match_serial(self):
        s = spec(workload="schedbench", reps=10, seed=11, anomaly_prob=0.9)
        serial = run_experiment(s, executor=SerialExecutor())
        assert any(a is not None for a in serial.anomalies)
        pooled, _ = run_pool(s)
        assert pooled.anomalies == serial.anomalies
        np.testing.assert_array_equal(pooled.times, serial.times)

    def test_custom_anomaly_labels_cross_the_pool(self, monkeypatch):
        """Labels are plain strings on the wire: names no platform
        preset knows arrive intact (the fork-started pool inherits the
        patched registry)."""
        from dataclasses import replace

        from repro.sim import platform as platforms

        base = platforms._REGISTRY["intel-9700kf"]

        def custom():
            p = base()
            anomalies = p.noise.anomalies
            renamed = tuple(replace(c, name=f"custom-{c.name}") for c in anomalies.candidates)
            return p.with_noise(replace(p.noise, anomalies=replace(anomalies, candidates=renamed)))

        monkeypatch.setitem(platforms._REGISTRY, "custom-anomalies", custom)
        s = spec(
            platform="custom-anomalies", workload="schedbench", reps=6, seed=11, anomaly_prob=1.0
        )
        serial = run_experiment(s, executor=SerialExecutor())
        assert all(a is not None and a.startswith("custom-") for a in serial.anomalies)
        pooled, _ = run_pool(s)
        assert pooled.anomalies == serial.anomalies
        np.testing.assert_array_equal(pooled.times, serial.times)

    def test_on_run_returns_by_pickle(self):
        seen = []
        rs, stats = run_pool(spec(reps=4), on_run=lambda i, r: seen.append(i))
        assert seen == [0, 1, 2, 3]
        assert stats["pickle_chunks"] > 1 and stats["shm_chunks"] == 0
        assert len(rs.times) == 4

    def test_traces_bitwise_identical_to_serial(self):
        """Traced ``on_run`` runs equal serial ones down to the last bit
        of every trace column."""
        s = spec(workload="schedbench", reps=4, seed=5, tracing=True)
        _, serial_runs = collect_runs(s, SerialExecutor())
        ex = ParallelExecutor(2)
        try:
            _, pooled_runs = collect_runs(s, ex)
        finally:
            ex.close()
        assert any(r.trace is not None for r in serial_runs.values())
        assert_runs_bitwise_equal(pooled_runs, serial_runs)

    def test_skip_policy_failures_cross_the_pool(self, monkeypatch):
        """Contained failures (NaN time + FailureRecord) arrive from the
        pool as they do in-process."""
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        policy = FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0)
        s = spec(reps=8, seed=3)
        serial = run_experiment(s, executor=SerialExecutor(), policy=policy)
        pooled, _ = run_pool(s, policy=policy)
        assert 0 < pooled.failure_count() == serial.failure_count() < 8
        np.testing.assert_array_equal(pooled.times, serial.times)
        assert failure_keys(pooled) == failure_keys(serial)

    def test_traced_skip_policy_failures_match_serial(self, monkeypatch):
        """A traced dispatch with contained failures: the pool delivers
        the same failure records and the same traced runs as serial."""
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        policy = FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0)
        s = spec(reps=8, seed=3, tracing=True)
        serial, serial_runs = collect_runs(s, SerialExecutor(), policy=policy)
        ex = ParallelExecutor(2)
        try:
            pooled, pooled_runs = collect_runs(s, ex, policy=policy)
        finally:
            ex.close()
        assert 0 < pooled.failure_count() == serial.failure_count() < 8
        assert failure_keys(pooled) == failure_keys(serial)
        assert serial_runs
        assert_runs_bitwise_equal(pooled_runs, serial_runs)


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


# ----------------------------------------------------------------------
# a rep builds its trace only when a consumer reads it
# ----------------------------------------------------------------------
def _count_finalize(monkeypatch) -> list:
    """Patch ``OSNoiseTracer.finalize`` to record each call in-process."""
    from repro.sim.tracer import OSNoiseTracer

    calls = []
    original = OSNoiseTracer.finalize

    def counted(self, *args, **kwargs):
        calls.append(self.enabled)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(OSNoiseTracer, "finalize", counted)
    return calls


class TestTraceOnlyForConsumers:
    @pytest.fixture(autouse=True)
    def _no_chaos(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)

    @pytest.mark.parametrize("backend", ["serial", "pool2"])
    def test_golden_cases_without_a_consumer(self, backend):
        """With no ``on_run``, every golden case still reproduces the
        fixture's exec times and anomalies rep for rep."""
        from tests.golden_cases import _noise, build_cases
        from tests.test_golden_equivalence import _load

        fixture = _load()
        ex = SerialExecutor() if backend == "serial" else ParallelExecutor(2)
        try:
            for case in build_cases():
                want = fixture[case["name"]]["reps"]
                kwargs = {k: v for k, v in case.items() if k not in ("name", "noise")}
                rs = run_experiment(
                    ExperimentSpec(reps=len(want), **kwargs),
                    noise=_noise(case.get("noise")),
                    executor=ex,
                )
                got = [(t.hex(), a) for t, a in zip(rs.times, rs.anomalies)]
                assert got == [(r["exec_time"], r["anomaly"]) for r in want], case["name"]
        finally:
            ex.close()

    def test_no_finalize_without_a_consumer(self, monkeypatch):
        from repro.harness.chunkrunner import run_chunk

        calls = _count_finalize(monkeypatch)
        s = spec(reps=3, tracing=True)
        run_experiment(s, executor=SerialExecutor())
        results = run_chunk(s, None, range(3), need_runs=False)
        assert calls == []
        assert all(r.run is None for r in results)

    def test_finalize_once_per_rep_with_a_consumer(self, monkeypatch):
        calls = _count_finalize(monkeypatch)
        traces = []
        run_experiment(
            spec(reps=3, tracing=True),
            executor=SerialExecutor(),
            on_run=lambda i, r: traces.append(r.trace),
        )
        assert calls == [True, True, True]
        assert all(t is not None for t in traces)

    def test_keep_trace_false_leaves_the_run_unchanged(self):
        """Skipping trace assembly moves no exec time, anomaly or counter."""
        from repro.harness.chunkrunner import resolved_context
        from repro.harness.experiment import run_resolved

        s = spec(workload="schedbench", tracing=True, anomaly_prob=1.0)
        context = resolved_context(s)
        for index in range(3):
            full = run_resolved(context, np.random.default_rng(rep_seed(s.seed, index)))
            bare = run_resolved(
                context, np.random.default_rng(rep_seed(s.seed, index)), keep_trace=False
            )
            assert full.trace is not None and bare.trace is None
            assert bare.exec_time.hex() == full.exec_time.hex()
            assert full.anomaly is not None and bare.anomaly == full.anomaly
            assert (bare.migrations, bare.preemptions) == (full.migrations, full.preemptions)


# ----------------------------------------------------------------------
# a pooled range submits its first round when it is made
# ----------------------------------------------------------------------
class TestStartedRange:
    """``run_rep_range`` on a pool submits the range's first round when
    it is called; iterating the range runs the dispatch loop, and
    ``close()`` ends it."""

    @pytest.fixture
    def ex(self):
        ex = ParallelExecutor(2)
        yield ex
        ex.close()

    @staticmethod
    def _count_submits(monkeypatch, ex):
        """Rounds submitted by the dispatch loop: one ``dispatches`` value per chunk."""
        rounds = []
        submit = ParallelExecutor._submit

        def spy(pool, futures, spec, noise, chunks, need_runs, policy, dispatches, parent):
            rounds.extend([dispatches] * len(chunks))
            submit(pool, futures, spec, noise, chunks, need_runs, policy, dispatches, parent)

        monkeypatch.setattr(ParallelExecutor, "_submit", staticmethod(spy))
        return rounds

    @staticmethod
    def _serial_times(s, indices):
        return [r.exec_time.hex() for r in SerialExecutor().run_rep_range(s, None, indices)]

    def test_iterating_a_made_range_submits_nothing_more(self, ex, monkeypatch):
        reps = ex.run_rep_range(spec(), None, range(6))
        submits = self._count_submits(monkeypatch, ex)
        assert [r.exec_time.hex() for r in reps] == self._serial_times(spec(), range(6))
        assert submits == []
        assert ex.stats()["pickle_chunks"] == len(ex._chunks(range(6)))
        reps.close()  # nothing left to end
        assert ex.stats()["pool_rebuilds"] == 0

    def test_another_thread_never_adopts(self, ex, monkeypatch):
        """get_executor() shares one pool between campaign threads: a
        thread asking for an equal range runs its own chunks."""
        import threading

        reps = ex.run_rep_range(spec(), None, range(6))
        submits = self._count_submits(monkeypatch, ex)
        seen = []
        worker = threading.Thread(
            target=lambda: seen.extend(ex.run_rep_range(spec(), None, range(6)))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert len(submits) == len(ex._chunks(range(6)))
        mine = list(reps)
        assert len(submits) == len(ex._chunks(range(6)))  # made before: nothing more submitted
        assert [r.exec_time for r in mine] == [r.exec_time for r in seen]

    def test_cancel_ends_every_future_and_the_pool_serves_on(self, ex):
        """Closing a range before iterating it leaves no future running."""
        reps = ex.run_rep_range(spec(reps=12), None, range(12))
        futures = list(reps.futures)
        assert len(futures) == len(ex._chunks(range(12)))
        reps.close()
        assert all(f.done() for f in futures)
        assert list(reps) == []
        rs = run_experiment(spec(), executor=ex)
        assert rs.times.tobytes() == run_experiment(spec(), executor=SerialExecutor()).times.tobytes()
        assert ex.stats()["pool_rebuilds"] == 0

    def test_a_batch_on_a_retired_pool_is_dropped(self, ex, monkeypatch):
        """The first round goes with the pool; the range dispatches
        afresh at dispatch count 0, and no re-dispatch is counted."""
        reps = ex.run_rep_range(spec(), None, range(6))
        ex._retire_pool(reps.pool, broken=True)
        submits = self._count_submits(monkeypatch, ex)
        assert [r.exec_time.hex() for r in reps] == self._serial_times(spec(), range(6))
        assert submits == [0] * len(ex._chunks(range(6)))
        stats = ex.stats()
        assert stats["pool_rebuilds"] == 1 and stats["chunk_redispatches"] == 0
        reps.close()  # consumed: nothing to do

    def test_nothing_to_start_without_a_pool_round_trip(self, ex, monkeypatch):
        """A serial backend and a range of at most one rep submit nothing,
        before iteration or after."""
        submits = self._count_submits(monkeypatch, ex)
        for backend, indices in (
            (SerialExecutor(), range(6)),
            (ParallelExecutor(1), range(6)),
            (ex, range(1)),
            (ex, range(0)),
        ):
            reps = backend.run_rep_range(spec(), None, indices)
            assert submits == []
            assert [r.exec_time.hex() for r in reps] == self._serial_times(spec(), indices)
            reps.close()
        assert submits == []
        assert ex._pool is None  # nothing forked for it


# ----------------------------------------------------------------------
# a pool's workers die with the process that made the pool
# ----------------------------------------------------------------------
_WARM_POOL = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.harness.executor import ParallelExecutor
    from repro.harness.experiment import ExperimentSpec, run_experiment
    ex = ParallelExecutor(2)
    run_experiment(ExperimentSpec(platform="intel-9700kf", workload="nbody", reps=2), executor=ex)
    print(*ex._pool._processes, flush=True)
    sys.stdin.read()
    """
)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


class TestOrphanedPool:
    def test_pool_workers_exit_when_their_parent_is_sigkilled(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        with subprocess.Popen(
            [sys.executable, "-c", _WARM_POOL.format(src=src)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                pids = [int(pid) for pid in proc.stdout.readline().split()]
            finally:
                proc.kill()
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _running(pid)]
        for pid in survivors:  # leave no orphan behind a failure
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"pool workers {survivors} outlived their parent"
