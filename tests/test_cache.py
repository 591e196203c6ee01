"""Unit tests for the on-disk result cache."""

import json

import numpy as np
import pytest

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentSpec
from repro.noise import TraceReplaySource


def spec(**kw):
    defaults = dict(
        platform="intel-9700kf", workload="nbody", model="omp", strategy="Rm", reps=2, seed=9
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def tiny_config():
    return NoiseConfig(
        {
            0: [
                ConfigEvent(
                    start=0.1,
                    duration=1e-3,
                    policy="SCHED_FIFO",
                    rt_priority=90,
                    weight=1.0,
                    etype=EventType.IRQ,
                    source="x",
                )
            ]
        }
    )


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = cache.get_or_run(spec())
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0
        b = cache.get_or_run(spec())
        assert cache.stats()["hits"] == 1
        np.testing.assert_array_equal(a.times, b.times)

    def test_different_specs_different_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        cache.get_or_run(spec(strategy="TP"))
        assert cache.stats()["misses"] == 2

    def test_seed_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        cache.get_or_run(spec(seed=10))
        assert cache.stats()["misses"] == 2

    def test_noise_config_part_of_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        cache.get_or_run(spec(), noise=TraceReplaySource(tiny_config()))
        assert cache.stats()["misses"] == 2

    def test_injected_flag_persisted(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec(), noise=TraceReplaySource(tiny_config()))
        rs = cache.get_or_run(spec(), noise=TraceReplaySource(tiny_config()))
        assert cache.stats()["hits"] == 1
        assert rs.injected

    def test_corrupt_entry_recovered(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        for f in tmp_path.glob("*.json"):
            f.write_text("not json")
        rs = cache.get_or_run(spec())
        assert cache.stats()["misses"] == 2
        assert len(rs.times) == 2

    def test_truncated_entry_evicted_counted_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.get_or_run(spec())
        entries = list(tmp_path.glob("*.json"))
        assert len(entries) == 1
        # Truncate mid-payload: the classic interrupted-write artefact.
        entries[0].write_text(entries[0].read_text()[:10])
        rs = cache.get_or_run(spec())
        assert cache.stats()["corrupt"] == 1
        np.testing.assert_array_equal(first.times, rs.times)
        # The re-run rewrote a valid entry: next lookup is a clean hit.
        again = cache.get_or_run(spec())
        assert cache.stats() == {"hits": 1, "misses": 2, "corrupt": 1, "stale": 0, "partial": 0, "integrity_quarantined": 0}
        np.testing.assert_array_equal(first.times, again.times)

    def test_entries_record_key_version(self, tmp_path):
        from repro.harness.cache import _KEY_VERSION

        cache = ResultCache(tmp_path)
        cache.get_or_run(spec(), noise=TraceReplaySource(tiny_config()))
        (entry,) = tmp_path.glob("*.json")
        data = json.loads(entry.read_text())
        assert data["key_version"] == _KEY_VERSION
        assert data["noise"] == ["trace-replay"]

    def test_stale_key_version_evicted_counted_and_rerun(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cache.get_or_run(spec())
        (entry,) = tmp_path.glob("*.json")
        data = json.loads(entry.read_text())
        data["key_version"] = 1  # pre-refactor schema
        data["times"] = [0.0] * len(data["times"])  # must NOT be served
        data.pop("sha256", None)  # entries that old never carried a seal
        entry.write_text(json.dumps(data))
        rs = cache.get_or_run(spec())
        assert cache.stats()["stale"] == 1
        assert cache.stats()["misses"] == 2
        np.testing.assert_array_equal(first.times, rs.times)
        # the eviction re-ran and rewrote a current entry: clean hit next
        again = cache.get_or_run(spec())
        assert cache.stats() == {"hits": 1, "misses": 2, "corrupt": 0, "stale": 1, "partial": 0, "integrity_quarantined": 0}
        np.testing.assert_array_equal(first.times, again.times)

    def test_missing_key_version_treated_as_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        (entry,) = tmp_path.glob("*.json")
        data = json.loads(entry.read_text())
        del data["key_version"]
        data.pop("sha256", None)
        entry.write_text(json.dumps(data))
        cache.get_or_run(spec())
        assert cache.stats()["stale"] == 1

    def test_noise_param_and_spec_noise_key_identically(self, tmp_path):
        from repro.noise import NoiseStack

        cache = ResultCache(tmp_path)
        stack = NoiseStack([TraceReplaySource(tiny_config())])
        cache.get_or_run(spec(), noise=stack)
        cache.get_or_run(spec(noise=stack))          # via the spec field
        cache.get_or_run(spec(), noise=TraceReplaySource(tiny_config()))  # bare source
        assert cache.stats() == {"hits": 2, "misses": 1, "corrupt": 0, "stale": 0, "partial": 0, "integrity_quarantined": 0}

    def test_stats_dict(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats() == {"hits": 0, "misses": 0, "corrupt": 0, "stale": 0, "partial": 0, "integrity_quarantined": 0}
        cache.get_or_run(spec())
        cache.get_or_run(spec())
        assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0, "stale": 0, "partial": 0, "integrity_quarantined": 0}

    def test_on_run_with_cache_enabled_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="on_run"):
            cache.get_or_run(spec(), on_run=lambda i, r: None)

    def test_on_run_allowed_when_cache_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        seen = []
        cache.get_or_run(spec(), on_run=lambda i, r: seen.append(i))
        assert seen == [0, 1]

    def test_explicit_executor_used_on_miss(self, tmp_path):
        from repro.harness.executor import SerialExecutor

        class CountingExecutor(SerialExecutor):
            def __init__(self):
                self.calls = 0

            def run_rep_range(self, *a, **kw):
                self.calls += 1
                return super().run_rep_range(*a, **kw)

        ex = CountingExecutor()
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec(), executor=ex)
        cache.get_or_run(spec(), executor=ex)  # hit: executor untouched
        assert ex.calls == 1

    def test_disabled_by_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        cache = ResultCache(tmp_path)
        cache.get_or_run(spec())
        cache.get_or_run(spec())
        assert cache.stats()["misses"] == 2
        assert list(tmp_path.glob("*.json")) == []

    def test_cache_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        cache = ResultCache()
        assert cache.root == tmp_path / "alt"
