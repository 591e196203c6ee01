"""Fault-containment tests: policy semantics, retry determinism,
partial results, and cache-driven campaign resume.

The load-bearing property mirrors the executor's determinism contract:
a rep recovered through retries (or a campaign resumed by re-running it
over its result cache) must be **bit-identical** to an undisturbed run.
"""

import json
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.harness import campaigns
from repro.harness.cache import ResultCache
from repro.harness.executor import SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.harness.faults import (
    FailureRecord,
    FaultPolicy,
    RepExecutionError,
    RepTimeoutError,
    atomic_write_text,
    rep_deadline,
)


def spec(**kw):
    defaults = dict(
        platform="intel-9700kf", workload="schedbench", reps=4, seed=42,
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
# policy semantics
# ----------------------------------------------------------------------
class TestFaultPolicy:
    def test_defaults_fail_fast(self):
        p = FaultPolicy()
        assert p.on_failure == "raise"
        assert p.retries == 0  # raise never retries

    def test_retries_granted_for_retry_and_skip(self):
        assert FaultPolicy(on_failure="retry", max_retries=3).retries == 3
        assert FaultPolicy(on_failure="skip", max_retries=3).retries == 3

    @pytest.mark.parametrize(
        "kw",
        [
            dict(on_failure="explode"),
            dict(timeout=0.0),
            dict(timeout=-1.0),
            dict(max_retries=-1),
            dict(backoff_factor=0.5),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            FaultPolicy(**kw)

    def test_backoff_deterministic_and_bounded(self):
        p = FaultPolicy(on_failure="retry", backoff_base=0.01, backoff_max=0.5)
        a = p.backoff_delay(seed=7, index=3, attempt=1)
        b = p.backoff_delay(seed=7, index=3, attempt=1)
        assert a == b  # pure function of (seed, index, attempt)
        assert p.backoff_delay(7, 3, 2) != a
        assert p.backoff_delay(8, 3, 1) != a
        for attempt in range(1, 6):
            assert 0.0 <= p.backoff_delay(7, 3, attempt) <= 0.5 * 1.5

    def test_backoff_independent_of_rep_stream(self):
        """Jitter draws come from a dedicated spawn branch, never the
        rep's own ``(index,)`` stream."""
        from repro.harness.chunkrunner import rep_seed

        p = FaultPolicy(on_failure="retry", backoff_base=0.01)
        before = np.random.default_rng(rep_seed(42, 3)).random(8)
        p.backoff_delay(42, 3, 1)
        after = np.random.default_rng(rep_seed(42, 3)).random(8)
        np.testing.assert_array_equal(before, after)

    def test_chunk_deadline_scales_with_budget(self):
        p = FaultPolicy(timeout=1.0, on_failure="retry", max_retries=2, backoff_max=0.5)
        assert p.chunk_deadline(4) == pytest.approx(1.0 * 3 * 4 + 0.5 * 2 * 4 + 5.0)
        assert FaultPolicy().chunk_deadline(4) is None


class TestFailureRecord:
    def test_round_trip(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            rec = FailureRecord.from_exception(3, "rep", exc, attempts=2, wall_time=0.5)
        assert rec.error == "RuntimeError" and rec.index == 3
        assert FailureRecord.from_dict(rec.to_dict()) == rec

    def test_rep_execution_error_pickles_with_record(self):
        rec = FailureRecord(1, "rep", "X", "m", "d", 2, 0.1)
        err = RepExecutionError("failed", rec)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.args == err.args and clone.record == rec


class TestRepDeadline:
    def test_interrupts_overrun(self):
        import time

        with pytest.raises(RepTimeoutError):
            with rep_deadline(0.05):
                time.sleep(5.0)

    def test_noop_without_timeout(self):
        with rep_deadline(None):
            pass

    def test_clears_timer_on_success(self):
        import time

        with rep_deadline(0.2):
            pass
        time.sleep(0.25)  # would fire here if the timer leaked


# ----------------------------------------------------------------------
# containment through run_experiment (chaos-driven failures)
# ----------------------------------------------------------------------
class TestContainment:
    def test_retry_recovers_bit_identical(self, monkeypatch):
        """Every rep fails once (injected), retries succeed: results are
        bit-identical to an undisturbed run."""
        clean = run_experiment(spec(), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "raise:5:1.0")
        rs = run_experiment(
            spec(),
            executor=SerialExecutor(),
            policy=FaultPolicy(on_failure="retry", max_retries=2, backoff_base=0.0),
        )
        assert not rs.failures
        np.testing.assert_array_equal(clean.times, rs.times)
        assert clean.anomalies == rs.anomalies

    def test_raise_policy_propagates_original_exception(self, monkeypatch):
        from repro.harness.chaos import ChaosError

        monkeypatch.setenv("REPRO_CHAOS", "raise:5:1.0")
        with pytest.raises(ChaosError):
            run_experiment(spec(), executor=SerialExecutor())

    def test_skip_policy_partial_results(self, monkeypatch):
        """Persistent faults + skip: failed reps carry NaN and a record;
        statistics aggregate the completed reps only."""
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        rs = run_experiment(
            spec(reps=8),
            executor=SerialExecutor(),
            policy=FaultPolicy(on_failure="skip", max_retries=1, backoff_base=0.0),
        )
        assert 0 < rs.failure_count() < 8
        assert np.isnan(rs.times).sum() == rs.failure_count()
        assert len(rs.ok_times) == 8 - rs.failure_count()
        assert np.isfinite(rs.mean) and np.isfinite(rs.sd)
        rec = rs.failures[0]
        assert rec.phase == "rep" and rec.error == "ChaosError" and rec.attempts == 2

    def test_skipped_reps_match_clean_on_surviving_indices(self, monkeypatch):
        clean = run_experiment(spec(reps=8), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        rs = run_experiment(
            spec(reps=8),
            executor=SerialExecutor(),
            policy=FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0),
        )
        ok = ~np.isnan(rs.times)
        np.testing.assert_array_equal(clean.times[ok], rs.times[ok])

    def test_timeout_retry_recovers_bit_identical(self, monkeypatch):
        """An induced stall trips the SIGALRM deadline; the retry (no
        chaos on attempt 1) reproduces the clean result exactly."""
        clean = run_experiment(spec(reps=3), executor=SerialExecutor())
        monkeypatch.setenv("REPRO_CHAOS", "timeout:3:1.0")
        rs = run_experiment(
            spec(reps=3),
            executor=SerialExecutor(),
            policy=FaultPolicy(
                timeout=0.2, on_failure="retry", max_retries=1, backoff_base=0.0
            ),
        )
        assert not rs.failures
        np.testing.assert_array_equal(clean.times, rs.times)

    def test_serial_executor_counts_retries(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "raise:5:1.0")
        ex = SerialExecutor()
        run_experiment(
            spec(),
            executor=ex,
            policy=FaultPolicy(on_failure="retry", max_retries=2, backoff_base=0.0),
        )
        assert ex.stats()["rep_retries"] == 4  # one retry per rep
        assert ex.stats()["rep_failures"] == 0


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, '{"a": 1}')
        assert json.loads(target.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.json"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"


# ----------------------------------------------------------------------
# partial-result quarantine in the cache
# ----------------------------------------------------------------------
class TestPartialQuarantine:
    def test_partial_results_never_cached_under_primary_key(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        # Pin the serial backend: the behaviour under test is the cache's
        # quarantine, and a REPRO_JOBS pool forked before setenv would
        # never see the chaos directive.
        cache = ResultCache(tmp_path)
        ex = SerialExecutor()
        policy = FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0)
        rs = cache.get_or_run(spec(reps=8), executor=ex, policy=policy)
        assert rs.failure_count() > 0
        assert cache.stats()["partial"] == 1
        partials = list(tmp_path.glob("*.partial.json"))
        assert len(partials) == 1
        env = json.loads(partials[0].read_text())
        assert len(env["failures"]) == rs.failure_count()
        # The primary key is absent: the next call re-runs.
        cache.get_or_run(spec(reps=8), executor=ex, policy=policy)
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 2

    def test_clean_rerun_after_chaos_lifts_caches_normally(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        cache = ResultCache(tmp_path)
        ex = SerialExecutor()
        policy = FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0)
        partial = cache.get_or_run(spec(reps=8), executor=ex, policy=policy)
        monkeypatch.delenv("REPRO_CHAOS")
        clean = cache.get_or_run(spec(reps=8), executor=ex, policy=policy)
        assert not clean.failures
        ok = ~np.isnan(partial.times)
        np.testing.assert_array_equal(partial.times[ok], clean.times[ok])
        assert cache.get_or_run(spec(reps=8)).times.tolist() == clean.times.tolist()
        assert cache.stats()["hits"] == 1


# ----------------------------------------------------------------------
# campaign resume: the result cache is the checkpoint
# ----------------------------------------------------------------------
class TestCampaignResume:
    @pytest.fixture
    def small_reps(self, monkeypatch):
        monkeypatch.setenv("REPRO_BASELINE_REPS", "3")
        monkeypatch.setenv("REPRO_INJECT_REPS", "2")

    def _settings(self, tmp_path):
        return campaigns.CampaignSettings(
            seed=2025, cache=ResultCache(tmp_path / "cache")
        )

    def test_interrupted_campaign_resumes_bit_identical(self, tmp_path, small_reps):
        settings = self._settings(tmp_path)
        reference = campaigns.table1(settings).render()
        entries = sorted((tmp_path / "cache").glob("*.json"))
        assert len(entries) == 6  # 3 workloads x off/on

        # Simulate an interruption that lost some completed cells.
        for f in entries[:2]:
            f.unlink()
        resumed = self._settings(tmp_path)
        result = campaigns.table1(resumed).render()
        assert result == reference  # bit-identical to the uninterrupted run
        stats = resumed.cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 4

    def test_completed_campaign_resume_runs_nothing(self, tmp_path, small_reps):
        settings = self._settings(tmp_path)
        reference = campaigns.table1(settings).render()
        resumed = self._settings(tmp_path)
        assert campaigns.table1(resumed).render() == reference
        assert resumed.cache.stats()["misses"] == 0

    def test_cell_failure_reraises_with_errored_span(self, tmp_path, small_reps):
        settings = self._settings(tmp_path)

        def exploding(_item):
            raise RuntimeError("cell blew up")

        telemetry.configure(enabled=True)
        telemetry.reset()
        try:
            with pytest.raises(RuntimeError, match="cell blew up"):
                settings.map_cells(exploding, ["only-cell", "other"])
            cells = [e for e in telemetry.events_snapshot() if e["name"] == "cell"]
        finally:
            telemetry.configure(enabled=False)
            telemetry.reset()
        assert cells and all(e["error"] == "RuntimeError" for e in cells)
        assert "'only-cell'" in [e["args"]["item"] for e in cells]

    def test_settings_thread_policy_into_cache(self, tmp_path, monkeypatch):
        """A cache miss runs under the settings' fault policy."""
        policy = FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0)
        settings = campaigns.CampaignSettings(
            cache=ResultCache(tmp_path / "cache"), fault_policy=policy, jobs=1
        )
        monkeypatch.setenv("REPRO_CHAOS", "raise!:11:0.5")
        rs = settings.submit_or_run(spec(reps=8))
        assert 0 < rs.failure_count() < 8
        assert settings.cache.stats()["partial"] == 1


# ----------------------------------------------------------------------
# CLI flag plumbing
# ----------------------------------------------------------------------
class TestCliPolicy:
    def _policy(self, *argv):
        from repro.cli import _policy_from, build_parser

        return _policy_from(build_parser().parse_args(argv))

    def test_no_flags_means_no_policy(self):
        assert self._policy("baseline") is None

    def test_retries_implies_retry_action(self):
        p = self._policy("baseline", "--retries", "3")
        assert p.on_failure == "retry" and p.max_retries == 3

    def test_explicit_action_and_timeout(self):
        p = self._policy("inject", "--config", "x.json", "--timeout", "2.5",
                         "--on-failure", "skip")
        assert p.on_failure == "skip" and p.timeout == 2.5

    def test_campaign_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "table1", "--retries", "1"])
        assert args.target == "table1" and args.retries == 1
