"""Unit tests for trace collection (stage 1)."""

import pytest

from repro.core.collection import collect_traces
from repro.harness.experiment import ExperimentSpec


def spec(**kw):
    defaults = dict(platform="intel-9700kf", workload="nbody", model="omp", strategy="Rm", seed=21)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestCollection:
    def test_basic_collection(self):
        coll = collect_traces(spec(), reps=5, min_degradation=0.0, max_batches=1)
        assert len(coll.exec_times) == 5
        assert coll.worst_trace is not None
        assert coll.worst_exec_time == coll.exec_times.max()
        assert len(coll.profile) > 0

    def test_worst_case_has_meta(self):
        coll = collect_traces(spec(), reps=5, min_degradation=0.0, max_batches=1)
        assert "run" in coll.worst_trace.meta

    def test_degradation_consistent(self):
        coll = collect_traces(spec(), reps=5, min_degradation=0.0, max_batches=1)
        expected = coll.worst_exec_time / coll.mean_exec_time - 1.0
        assert coll.worst_case_degradation() == pytest.approx(expected)

    def test_tracing_forced_on(self):
        coll = collect_traces(spec(tracing=False), reps=3, min_degradation=0.0, max_batches=1)
        assert coll.worst_trace is not None

    def test_profile_contains_timer_source(self):
        coll = collect_traces(spec(), reps=3, min_degradation=0.0, max_batches=1)
        assert "local_timer:236" in coll.profile

    def test_outlier_hunt_adds_batches(self):
        # With a silent anomaly lottery the hunt must exhaust batches.
        coll = collect_traces(
            spec(anomaly_prob=0.0), reps=3, min_degradation=0.5, max_batches=3
        )
        assert len(coll.exec_times) == 9

    def test_hunt_stops_when_outlier_found(self):
        # Guaranteed anomaly: a single batch should satisfy the hunt.
        coll = collect_traces(
            spec(anomaly_prob=1.0), reps=4, min_degradation=0.02, max_batches=5
        )
        assert len(coll.exec_times) == 4

    def test_deterministic(self):
        a = collect_traces(spec(), reps=4, min_degradation=0.0, max_batches=1)
        b = collect_traces(spec(), reps=4, min_degradation=0.0, max_batches=1)
        assert a.worst_exec_time == b.worst_exec_time
        assert list(a.exec_times) == list(b.exec_times)


class TestOneFoldPerTrace:
    """Each trace is folded into one accumulator; the profile equals the
    one built from an all-runs and a clean-runs accumulator."""

    @staticmethod
    def _collect(monkeypatch, anomaly_prob, excludes):
        from repro.core import collection
        from repro.core.profile import ProfileAccumulator

        seen = []
        real = collection.run_experiment

        def recording(spec, on_run, **kw):
            def on_run_and_record(i, result):
                on_run(i, result)
                seen.append((result.trace, result.anomaly))

            return real(spec, on_run=on_run_and_record, **kw)

        monkeypatch.setattr(collection, "run_experiment", recording)
        coll = collect_traces(
            spec(anomaly_prob=anomaly_prob), reps=6, min_degradation=0.0, max_batches=1,
            profile_excludes_anomalies=excludes,
        )
        acc_all, acc_clean = ProfileAccumulator(), ProfileAccumulator()
        for trace, anomaly in seen:
            acc_all.add(trace)
            if not anomaly:
                acc_clean.add(trace)
        ref = acc_clean if excludes and acc_clean.n_runs else acc_all
        return coll, ref.build(), [a for _, a in seen]

    @pytest.mark.parametrize("excludes", [True, False])
    @pytest.mark.parametrize("anomaly_prob,expect", [(0.5, "mixed"), (0.0, "clean"), (1.0, "anomalous")])
    def test_profile_equals_two_accumulator_reference(self, monkeypatch, excludes, anomaly_prob, expect):
        coll, ref, anomalies = self._collect(monkeypatch, anomaly_prob, excludes)
        kinds = {bool(a) for a in anomalies}
        assert kinds == {"mixed": {True, False}, "clean": {False}, "anomalous": {True}}[expect]
        assert dict(coll.profile) == dict(ref)
        assert list(coll.profile) == list(ref)
        assert (coll.profile.n_runs, coll.profile.total_window) == (ref.n_runs, ref.total_window)
