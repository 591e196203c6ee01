"""Unit tests for noise-config generation (paper Fig. 5)."""

import pytest

from repro.core.config import ConfigEvent, NoiseConfig, generate_config
from repro.core.events import EventType
from repro.core.merge import MergeStrategy
from repro.core.profile import build_profile
from repro.core.trace import Trace


def make_event(**kw):
    defaults = dict(
        start=0.1,
        duration=1e-3,
        policy="SCHED_OTHER",
        rt_priority=0,
        weight=1.0,
        etype=EventType.THREAD,
        source="kworker",
    )
    defaults.update(kw)
    return ConfigEvent(**defaults)


class TestConfigEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_event(duration=0.0)
        with pytest.raises(ValueError):
            make_event(start=-1.0)
        with pytest.raises(ValueError):
            make_event(policy="SCHED_RR")

    @pytest.mark.parametrize("field", ["start", "duration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, field, value):
        # a trace-replay config file can carry NaN or Infinity literals
        with pytest.raises(ValueError, match="finite"):
            make_event(**{field: value})

    def test_dict_roundtrip(self):
        e = make_event(policy="SCHED_FIFO", rt_priority=90, etype=EventType.IRQ)
        back = ConfigEvent.from_dict(e.to_dict())
        assert back == e

    def test_dict_uses_paper_field_names(self):
        d = make_event().to_dict()
        assert "start_time" in d and "duration" in d and "policy" in d


class TestNoiseConfig:
    def test_counts(self):
        cfg = NoiseConfig({0: [make_event()], 1: [make_event(), make_event(start=0.5)]})
        assert cfg.n_cpus == 2
        assert cfg.n_events == 3

    def test_empty_cpu_lists_dropped(self):
        cfg = NoiseConfig({0: [make_event()], 1: []})
        assert cfg.n_cpus == 1

    def test_events_sorted_within_cpu(self):
        cfg = NoiseConfig({0: [make_event(start=0.5), make_event(start=0.1)]})
        starts = [e.start for e in cfg.events_per_cpu[0]]
        assert starts == sorted(starts)

    def test_total_busy_time(self):
        cfg = NoiseConfig({0: [make_event(duration=1e-3), make_event(start=0.5, duration=2e-3)]})
        assert cfg.total_busy_time() == pytest.approx(3e-3)

    def test_window(self):
        cfg = NoiseConfig({0: [make_event(start=0.1, duration=0.01)], 1: [make_event(start=0.5, duration=0.02)]})
        assert cfg.window() == pytest.approx(0.42)

    def test_json_roundtrip(self):
        cfg = NoiseConfig(
            {2: [make_event(policy="SCHED_FIFO", rt_priority=50, etype=EventType.SOFTIRQ)]},
            meta={"merge_strategy": "improved"},
        )
        back = NoiseConfig.from_json(cfg.to_json())
        assert back.n_events == 1
        assert back.meta["merge_strategy"] == "improved"
        assert back.events_per_cpu[2][0].policy == "SCHED_FIFO"

    def test_json_structure_matches_fig5(self):
        import json

        cfg = NoiseConfig({0: [make_event()]})
        payload = json.loads(cfg.to_json())
        assert "threads" in payload
        assert payload["threads"][0]["cpu"] == 0
        assert "noise_events" in payload["threads"][0]

    def test_save_load(self, tmp_path):
        cfg = NoiseConfig({0: [make_event()]})
        path = tmp_path / "cfg.json"
        cfg.save(path)
        assert NoiseConfig.load(path).n_events == 1


class TestGenerateConfig:
    def _worst_and_profile(self):
        hum = [
            Trace.from_records(
                [(0, int(EventType.THREAD), "k", i * 0.1, 1e-4) for i in range(10)],
                1.0,
            )
            for _ in range(9)
        ]
        worst = Trace.from_records(
            [(0, int(EventType.THREAD), "k", i * 0.1, 1e-4) for i in range(10)]
            + [
                (1, int(EventType.THREAD), "snapd", 0.4, 20e-3),
                (1, int(EventType.IRQ), "nic", 0.45, 1e-3),
            ],
            1.3,
        )
        profile = build_profile(hum + [worst])
        return worst, profile

    def test_residual_becomes_config(self):
        worst, profile = self._worst_and_profile()
        cfg = generate_config(worst, profile)
        assert cfg.n_events == 2
        assert set(cfg.events_per_cpu) == {1}

    def test_policies_assigned_by_class(self):
        worst, profile = self._worst_and_profile()
        cfg = generate_config(worst, profile)
        policies = {e.source: e.policy for e in cfg.events_per_cpu[1]}
        assert policies["snapd"] == "SCHED_OTHER"
        assert policies["nic"] == "SCHED_FIFO"

    def test_improved_weights_thread_noise(self):
        worst, profile = self._worst_and_profile()
        cfg = generate_config(worst, profile, merge=MergeStrategy.IMPROVED)
        snapd = next(e for e in cfg.events_per_cpu[1] if e.source == "snapd")
        assert snapd.weight > 1.0

    def test_min_duration_filters(self):
        worst, profile = self._worst_and_profile()
        cfg = generate_config(worst, profile, min_duration=50e-3)
        assert cfg.n_events == 0

    def test_meta_provenance(self):
        worst, profile = self._worst_and_profile()
        cfg = generate_config(worst, profile, meta={"config_idx": 1})
        assert cfg.meta["merge_strategy"] == "improved"
        assert cfg.meta["config_idx"] == 1
        assert cfg.meta["worst_case_exec_time"] == pytest.approx(1.3)
