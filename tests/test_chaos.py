"""Deterministic chaos-harness tests: injected faults must exercise
every recovery path while the recovered results stay bit-identical to
undisturbed runs.

The parallel-backend cases use fresh (non-shared) ``ParallelExecutor``
instances so a chaos-broken pool never leaks into other tests.
"""

import json

import numpy as np
import pytest

from repro.harness.cache import ResultCache
from repro.harness.chaos import (
    CHAOS_PROFILES,
    ChaosError,
    ChaosSpec,
    get_chaos,
    in_worker,
    mark_worker,
    parse_chaos,
)
from repro.harness.executor import ParallelExecutor, SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.faults import FaultPolicy, RepExecutionError


def spec(**kw):
    defaults = dict(
        platform="intel-9700kf", workload="schedbench", reps=6, seed=42,
        workload_params={"repeats": 2},
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


@pytest.fixture(autouse=True)
def _isolated_chaos(monkeypatch):
    """Each test drives REPRO_CHAOS itself; an externally exported
    directive (the CI chaos-smoke job) must not leak into references."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


# ----------------------------------------------------------------------
# directive parsing and determinism
# ----------------------------------------------------------------------
class TestParsing:
    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    def test_profiles_parse(self, profile):
        cs = parse_chaos(f"{profile}:7")
        assert cs.profile == profile and cs.seed == 7 and not cs.persist

    def test_rate_and_persist(self):
        cs = parse_chaos("crash!:3:0.75")
        assert cs.persist and cs.rate == 0.75 and cs.profile == "crash"

    @pytest.mark.parametrize(
        "text", ["", "raise", "bogus:1", "raise:x", "raise:1:2.0", "raise:1:0.5:extra"]
    )
    def test_invalid_directives_rejected(self, text):
        with pytest.raises(ValueError):
            parse_chaos(text)

    def test_get_chaos_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert get_chaos() is None
        monkeypatch.setenv("REPRO_CHAOS", "raise:9:1.0")
        assert get_chaos() == ChaosSpec(profile="raise", seed=9, rate=1.0)
        monkeypatch.delenv("REPRO_CHAOS")
        assert get_chaos() is None


class TestDeterminism:
    def test_fault_decision_pure_function(self):
        cs = ChaosSpec(profile="all", seed=5, rate=0.5)
        modes = [cs._mode(42, i) for i in range(50)]
        assert modes == [cs._mode(42, i) for i in range(50)]
        fired = [m for m in modes if m is not None]
        assert 0 < len(fired) < 50  # rate actually selects a subset
        assert set(fired) <= {"raise", "timeout", "crash"}

    def test_different_seeds_differ(self):
        a = [ChaosSpec("raise", 1, 0.5)._mode(42, i) for i in range(64)]
        b = [ChaosSpec("raise", 2, 0.5)._mode(42, i) for i in range(64)]
        assert a != b

    def test_fires_only_on_first_attempt_unless_persist(self):
        cs = ChaosSpec(profile="raise", seed=1, rate=1.0)
        with pytest.raises(ChaosError):
            cs.rep_fault(42, 0, attempt=0)
        cs.rep_fault(42, 0, attempt=1)  # recovery attempt: no fault
        persist = ChaosSpec(profile="raise", seed=1, rate=1.0, persist=True)
        with pytest.raises(ChaosError):
            persist.rep_fault(42, 0, attempt=1)

    def test_crash_downgrades_outside_workers(self):
        assert not in_worker()
        cs = ChaosSpec(profile="crash", seed=1, rate=1.0)
        with pytest.raises(ChaosError, match="serial downgrade"):
            cs.rep_fault(42, 0, attempt=0)

    def test_mark_worker_flag(self):
        mark_worker(True)
        try:
            assert in_worker()
        finally:
            mark_worker(False)
        assert not in_worker()


# ----------------------------------------------------------------------
# pool-breakage recovery (the BrokenProcessPool path)
# ----------------------------------------------------------------------
class TestPoolRecovery:
    def test_worker_crash_recovered_bit_identical(self, monkeypatch):
        """Chaos kills every worker on first dispatch; the pool is
        rebuilt, chunks re-dispatch at attempt > 0 (no further faults),
        and the final results match an undisturbed run exactly."""
        clean = run_experiment(spec(), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "crash:17:1.0")
        ex = ParallelExecutor(2)
        try:
            rs = run_experiment(spec(), executor=ex)
        finally:
            ex.close()
        np.testing.assert_array_equal(clean.times, rs.times)
        assert clean.anomalies == rs.anomalies
        stats = ex.stats()
        assert stats["pool_rebuilds"] >= 1
        assert stats["chunk_redispatches"] >= 1
        assert not stats["degraded"]

    def test_partial_crash_rate_recovers(self, monkeypatch):
        clean = run_experiment(spec(reps=8, seed=3), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "crash:23:0.3")
        ex = ParallelExecutor(2)
        try:
            rs = run_experiment(spec(reps=8, seed=3), executor=ex)
        finally:
            ex.close()
        np.testing.assert_array_equal(clean.times, rs.times)

    def test_persistent_crashes_degrade_to_serial(self, monkeypatch):
        """With faults firing on every dispatch the pool keeps breaking;
        after ``max_pool_breaks`` the executor degrades to in-process
        execution, where crash downgrades to a containable exception."""
        monkeypatch.setenv("REPRO_CHAOS", "crash!:29:1.0")
        ex = ParallelExecutor(2)
        try:
            rs = run_experiment(
                spec(),
                executor=ex,
                policy=FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0),
            )
        finally:
            ex.close()
        stats = ex.stats()
        assert stats["degraded"]
        assert stats["pool_rebuilds"] >= ex.max_pool_breaks
        # Serial fallback contains the (downgraded) faults per policy.
        assert rs.failure_count() == len(rs.times)
        assert np.isnan(rs.times).all()

    def test_degraded_executor_still_correct_after_chaos_lifts(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "crash!:29:1.0")
        ex = ParallelExecutor(2)
        try:
            run_experiment(
                spec(),
                executor=ex,
                policy=FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0),
            )
            assert ex.stats()["degraded"]
            monkeypatch.delenv("REPRO_CHAOS")
            clean = run_experiment(spec(), executor=SerialExecutor())
            rs = run_experiment(spec(), executor=ex)  # serial in-process now
            np.testing.assert_array_equal(clean.times, rs.times)
        finally:
            ex.close()

    @staticmethod
    def _run_hung(monkeypatch, on_failure):
        """Every rep stalls for 2.05 s on every dispatch while each chunk
        gets a 0.3 s deadline, so the parent's hung-chunk path runs."""
        monkeypatch.setenv("REPRO_CHAOS", "timeout!:5:1.0")
        monkeypatch.setattr(FaultPolicy, "chunk_deadline", lambda self, n: 0.3)
        policy = FaultPolicy(
            timeout=2.0, max_retries=1, backoff_base=0.0, on_failure=on_failure
        )
        cell = ExperimentSpec(
            platform="intel-9700kf", workload="nbody", reps=4, seed=5, tracing=False
        )
        ex = ParallelExecutor(2)
        try:
            return run_experiment(cell, executor=ex, policy=policy), ex.stats()
        finally:
            ex.close()

    def test_hung_chunks_skip_after_redispatch(self, monkeypatch):
        """A missed deadline kills the pool and re-dispatches; it is no
        pool break, so the hung chunks never run in-process."""
        rs, stats = self._run_hung(monkeypatch, "skip")
        assert np.isnan(rs.times).all()
        assert [f.error for f in rs.failures] == ["ChunkTimeout"] * 4
        assert stats == {
            "pool_rebuilds": 0,
            "chunk_timeouts": 5,
            "chunk_redispatches": 10,
            "rep_retries": 4,
            "rep_failures": 4,
            "shm_chunks": 0,
            "pickle_chunks": 0,
            "degraded": False,
        }

    def test_hung_chunks_raise_under_retry(self, monkeypatch):
        with pytest.raises(RepExecutionError, match="kept timing out"):
            self._run_hung(monkeypatch, "retry")

    def test_retired_pool_is_gone_before_the_next_fork(self, monkeypatch):
        """Retiring a pool kills its workers even when they inherited a
        SIGTERM handler (as a service worker's pool workers do) and
        waits out its manager thread, which a worker forked for the
        next pool could otherwise inherit a held lock from."""
        import signal

        monkeypatch.setenv("REPRO_CHAOS", "timeout!:5:1.0")
        monkeypatch.setattr(FaultPolicy, "chunk_deadline", lambda self, n: 0.3)
        ex = ParallelExecutor(2)
        retired = []
        retire = ex._retire_pool

        def spy(pool, broken):
            workers = list(pool._processes.values())
            manager = pool._executor_manager_thread
            retire(pool, broken)
            retired.append((workers, manager))

        monkeypatch.setattr(ex, "_retire_pool", spy)
        cell = ExperimentSpec(
            platform="intel-9700kf", workload="nbody", reps=4, seed=5, tracing=False
        )
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with pytest.raises(RepExecutionError, match="kept timing out"):
                run_experiment(cell, executor=ex, policy=FaultPolicy(timeout=2.0))
        finally:
            signal.signal(signal.SIGTERM, previous)
            ex.close()
        [(workers, manager)] = retired
        assert workers and [w.exitcode for w in workers] == [-signal.SIGKILL] * len(workers)
        assert not manager.is_alive()


# ----------------------------------------------------------------------
# cache corruption (torn-write salvage)
# ----------------------------------------------------------------------
class TestCorruption:
    def test_torn_entry_salvaged_and_rerun(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "corrupt:31:1.0")
        cache = ResultCache(tmp_path)
        first = cache.get_or_run(spec(reps=3))
        # The freshly written entry was torn by chaos: next lookup
        # salvages (evict + re-run) and the rewrite stands (corruption
        # fires once per path).
        second = cache.get_or_run(spec(reps=3))
        assert cache.stats()["corrupt"] == 1
        np.testing.assert_array_equal(first.times, second.times)
        third = cache.get_or_run(spec(reps=3))
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(first.times, third.times)

    def test_corrupt_profile_never_touches_reps(self, monkeypatch):
        clean = run_experiment(spec(reps=3), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "corrupt:31:1.0")
        rs = run_experiment(spec(reps=3), executor=SerialExecutor())
        np.testing.assert_array_equal(clean.times, rs.times)


# ----------------------------------------------------------------------
# end-to-end: campaign under chaos == undisturbed campaign
# ----------------------------------------------------------------------
class TestChaosEquivalence:
    def test_campaign_under_chaos_matches_undisturbed(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import campaigns

        monkeypatch.setenv("REPRO_BASELINE_REPS", "3")
        reference = campaigns.table1(
            campaigns.CampaignSettings(cache=ResultCache(tmp_path / "clean"))
        ).render()
        monkeypatch.setenv("REPRO_CHAOS", "raise:37:0.4")
        chaotic = campaigns.table1(
            campaigns.CampaignSettings(
                cache=ResultCache(tmp_path / "chaos"),
                fault_policy=FaultPolicy(
                    on_failure="retry", max_retries=2, backoff_base=0.0
                ),
            )
        ).render()
        assert chaotic == reference

    def test_golden_cases_survive_chaos_bitwise(self, monkeypatch):
        """A slice of the golden-equivalence matrix replayed under
        injected faults + retry: signatures must match the undisturbed
        ones exactly (same float hex, same trace hashes)."""
        from tests.golden_cases import build_cases, run_case

        cases = [c for c in build_cases()
                 if c["name"] in ("intel-schedbench-static", "intel-replay",
                                  "amd-nbody-smt")]
        assert len(cases) == 3
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        reference = [run_case(c) for c in cases]
        monkeypatch.setenv("REPRO_CHAOS", "raise:41:1.0")
        policy = FaultPolicy(on_failure="retry", max_retries=1, backoff_base=0.0)
        chaotic = [run_case(c, policy=policy) for c in cases]
        assert chaotic == reference
