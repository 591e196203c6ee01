"""Adaptive-rep early stopping: policy semantics, determinism, caching.

The adaptive contract (see ``repro.harness.adaptive``): same spec +
seed + policy → same rep count and bit-identical per-rep times at any
worker count or chunk size; the first ``n`` adaptive reps equal the
first ``n`` fixed reps; adaptive results cache under a distinct key.
``tests/fixtures/adaptive_reps.json`` pins the reference behaviour.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.harness.adaptive import (
    ADAPTIVE_FIXTURE_VERSION,
    AdaptivePolicy,
    ci_rng,
)
from repro.harness.cache import ResultCache
from repro.harness.executor import ParallelExecutor, SerialExecutor
from repro.harness.experiment import ExperimentSpec, run_experiment
from tests.adaptive_cases import (
    ADAPTIVE_FIXTURE_PATH,
    FIXTURE_BUDGET,
    FIXTURE_POLICY,
    build_adaptive_cases,
    run_adaptive_case,
)

REPO = Path(__file__).resolve().parent.parent


def spec(**kw):
    defaults = dict(platform="intel-9700kf", workload="nbody", model="omp", reps=24, seed=42)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def policy(**kw):
    defaults = dict(target_rel_hw=0.05, min_reps=4, batch=4, n_boot=200)
    defaults.update(kw)
    return AdaptivePolicy(**defaults)


@pytest.fixture(scope="module")
def fixtures():
    data = json.loads((REPO / ADAPTIVE_FIXTURE_PATH).read_text())
    assert data["version"] == ADAPTIVE_FIXTURE_VERSION
    assert data["policy"] == FIXTURE_POLICY.to_dict()
    assert data["budget"] == FIXTURE_BUDGET
    return {c["name"]: c for c in data["cases"]}


# ----------------------------------------------------------------------
# policy semantics
# ----------------------------------------------------------------------
class TestPolicy:
    @pytest.mark.parametrize("kw", [
        dict(target_rel_hw=0.0), dict(target_rel_hw=-0.1),
        dict(confidence=0.0), dict(confidence=1.0),
        dict(min_reps=1), dict(max_reps=-1), dict(batch=0), dict(n_boot=10),
    ])
    def test_invalid_params_rejected(self, kw):
        with pytest.raises(ValueError):
            policy(**kw)

    def test_cap_resolution(self):
        assert policy().resolve_cap(40) == 40          # 0 → spec budget
        assert policy(max_reps=16).resolve_cap(40) == 16
        assert policy(max_reps=100).resolve_cap(40) == 100  # explicit wins

    def test_batch_edges_schedule(self):
        p = policy(min_reps=8, batch=8)
        assert p.batch_edges(40) == [8, 16, 24, 32, 40]
        assert p.batch_edges(20) == [8, 16, 20]
        assert p.batch_edges(5) == [5]
        assert p.batch_edges(0) == []

    def test_should_stop_needs_two_samples(self):
        stop, hw = policy().should_stop(np.array([1.0]), seed=1, n=4)
        assert not stop and np.isnan(hw)

    def test_should_stop_deterministic(self):
        rng = np.random.default_rng(7)
        times = 1.0 + 0.01 * rng.standard_normal(16)
        a = policy().should_stop(times, seed=3, n=16)
        b = policy().should_stop(times, seed=3, n=16)
        assert a == b

    def test_ci_rng_disjoint_from_rep_streams(self):
        """The decision stream must not collide with per-rep streams
        (``spawn_key=(i,)``) — tapping it cannot perturb rep results."""
        from repro.harness.chunkrunner import rep_seed

        decision = ci_rng(42, 8).random(4)
        rep = np.random.default_rng(rep_seed(42, 8)).random(4)
        assert not np.array_equal(decision, rep)

    def test_dict_round_trip_and_coerce(self):
        p = policy(max_reps=64)
        assert AdaptivePolicy.from_dict(p.to_dict()) == p
        assert AdaptivePolicy.coerce(p) is p
        assert AdaptivePolicy.coerce(p.to_dict()) == p
        assert AdaptivePolicy.coerce(None) is None
        with pytest.raises(TypeError):
            AdaptivePolicy.coerce(0.05)

    def test_spec_coerces_policy_dict(self):
        s = spec(adaptive=policy().to_dict())
        assert s.adaptive == policy()


# ----------------------------------------------------------------------
# the adaptive rep loop
# ----------------------------------------------------------------------
class TestLoop:
    def test_stops_early_and_reports(self):
        rs = run_experiment(spec(adaptive=policy()), executor=SerialExecutor())
        info = rs.adaptive
        assert info is not None
        assert info["reps_run"] == len(rs.times) == len(rs.anomalies)
        assert info["reps_run"] < 24 and info["stopped_early"]
        assert info["rel_halfwidth"] <= policy().target_rel_hw
        assert info["policy"] == policy().to_dict()

    def test_fixed_mode_unreported(self):
        """A fixed run is one batch with no stop rule: no ``batch``
        span, no ``adaptive`` counter and no ``adaptive`` summary."""
        from repro import telemetry

        telemetry.configure(enabled=True)
        telemetry.reset()
        try:
            rs = run_experiment(spec(), executor=SerialExecutor())
            spans = [e["name"] for e in telemetry.drain_events() if e["type"] == "span"]
            adaptive = telemetry.counters_snapshot().get("adaptive", {})
        finally:
            telemetry.configure(enabled=False)
            telemetry.reset()
        assert rs.adaptive is None and len(rs.times) == spec().reps
        assert spans.count("experiment") == 1 and "batch" not in spans
        assert not any(adaptive.values())

    def test_prefix_matches_fixed_run(self):
        """The first n adaptive reps are the first n fixed reps."""
        rs = run_experiment(spec(adaptive=policy()), executor=SerialExecutor())
        fixed = run_experiment(spec(), executor=SerialExecutor())
        n = rs.adaptive["reps_run"]
        np.testing.assert_array_equal(rs.times, fixed.times[:n])
        assert rs.anomalies == fixed.anomalies[:n]

    def test_unreachable_target_runs_to_cap(self):
        p = policy(target_rel_hw=1e-9)
        rs = run_experiment(spec(adaptive=p), executor=SerialExecutor())
        assert rs.adaptive["reps_run"] == 24
        assert not rs.adaptive["stopped_early"]

    def test_explicit_max_reps_overrides_budget(self):
        p = policy(target_rel_hw=1e-9, max_reps=6)
        rs = run_experiment(spec(adaptive=p), executor=SerialExecutor())
        assert rs.adaptive["reps_run"] == 6 and rs.adaptive["cap"] == 6

    def test_worker_and_chunk_invariant(self):
        s = spec(workload="schedbench", seed=9, workload_params={"repeats": 3},
                 adaptive=policy())
        ref = run_experiment(s, executor=SerialExecutor())
        for jobs in (2, 3):
            ex = ParallelExecutor(jobs)
            try:
                rs = run_experiment(s, executor=ex)
            finally:
                ex.close()
            assert rs.adaptive["reps_run"] == ref.adaptive["reps_run"]
            np.testing.assert_array_equal(ref.times, rs.times)
            assert ref.anomalies == rs.anomalies


# ----------------------------------------------------------------------
# fixture replay (the pinned reference behaviour)
# ----------------------------------------------------------------------
class TestFixtures:
    def test_serial_replay_exact(self, fixtures):
        for case in build_adaptive_cases():
            sig = run_adaptive_case(case)
            assert sig == fixtures[case["name"]], case["name"]

    def test_parallel_replay_exact(self, fixtures):
        ex = ParallelExecutor(2)
        try:
            for case in build_adaptive_cases():
                sig = run_adaptive_case(case, executor=ex)
                assert sig == fixtures[case["name"]], case["name"]
        finally:
            ex.close()

    def test_fixture_mix_covers_all_outcomes(self, fixtures):
        """The suite must keep exercising every stopping regime."""
        runs = [c["reps_run"] for c in fixtures.values()]
        assert FIXTURE_POLICY.min_reps in runs          # stops at min
        assert FIXTURE_BUDGET in runs                   # exhausts budget
        assert any(FIXTURE_POLICY.min_reps < r < FIXTURE_BUDGET for r in runs)


# ----------------------------------------------------------------------
# caching: adaptive results key separately from fixed-rep ones
# ----------------------------------------------------------------------
class TestCaching:
    def test_distinct_keys(self):
        key = ResultCache._key
        fixed = key(spec(), None, 24)
        assert key(spec(adaptive=policy()), None, 24) != fixed
        assert key(spec(adaptive=policy()), None, 24) != key(
            spec(adaptive=policy(batch=5)), None, 24
        )

    def test_stop_rule_version_shapes_key(self, monkeypatch):
        """Bumping ADAPTIVE_FIXTURE_VERSION invalidates adaptive entries
        (the stored sample depends on the stop rule) without touching
        fixed-rep ones."""
        import repro.harness.cache as cache_mod

        s = spec(adaptive=policy())
        before = ResultCache._key(s, None, 24)
        fixed_before = ResultCache._key(spec(), None, 24)
        monkeypatch.setattr(cache_mod, "_ADAPTIVE_KEY_VERSION", 99)
        assert ResultCache._key(s, None, 24) != before
        assert ResultCache._key(spec(), None, 24) == fixed_before

    def test_round_trip_preserves_adaptive_metadata(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec(adaptive=policy())
        first = cache.get_or_run(s, executor=SerialExecutor())
        again = cache.get_or_run(s, executor=SerialExecutor())
        assert cache.stats()["hits"] >= 1
        np.testing.assert_array_equal(first.times, again.times)
        assert again.adaptive == first.adaptive
        assert again.adaptive["reps_run"] == len(again.times)

    def test_campaign_level_default_policy(self, tmp_path):
        """A campaign-wide policy applies to specs without one but never
        overrides a per-spec policy."""
        from repro.harness.campaigns import CampaignSettings

        settings = CampaignSettings(cache=ResultCache(tmp_path), adaptive=policy(), jobs=1)
        rs = settings.submit_or_run(spec())
        assert rs.adaptive is not None
        assert rs.adaptive["policy"] == policy().to_dict()
        tight = policy(target_rel_hw=1e-9)
        rs2 = settings.submit_or_run(spec(adaptive=tight))
        assert rs2.adaptive["policy"] == tight.to_dict()


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_baseline_flag(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["baseline", "--reps", "12", "--seed", "5",
                     "--adaptive-ci", "0.5"]) == 0
        assert "mean=" in capsys.readouterr().out

    def test_bad_values_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--adaptive-ci", "-0.1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["baseline", "--jobs", "-1"])

    def test_flag_reaches_spec(self):
        from repro.cli import _spec_from, build_parser

        args = build_parser().parse_args(["baseline", "--adaptive-ci", "0.02"])
        s = _spec_from(args)
        assert s.adaptive == AdaptivePolicy(target_rel_hw=0.02)
        assert _spec_from(build_parser().parse_args(["baseline"])).adaptive is None
