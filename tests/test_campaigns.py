"""Campaign smoke tests at tiny repetition counts.

These validate wiring and shape invariants, not the paper's numbers —
the benchmarks regenerate those at realistic scale.
"""

import pytest

from repro.harness import campaigns
from repro.harness.cache import ResultCache
from repro.mitigation.strategies import STRATEGY_NAMES


@pytest.fixture
def settings(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BASELINE_REPS", "4")
    monkeypatch.setenv("REPRO_INJECT_REPS", "3")
    return campaigns.CampaignSettings(
        seed=2025, collect_reps=6, collect_batches=2, cache=ResultCache(tmp_path)
    )


class TestTable1:
    def test_shape_and_render(self, settings):
        r = campaigns.table1(settings)
        assert set(r.rows) == {"nbody", "babelstream", "minife"}
        for off, on, pct in r.rows.values():
            assert on >= off > 0
            assert pct < 1.0  # sub-1% like the paper
        assert "Table 1" in r.render()


class TestTable2:
    def test_all_cells_present(self, settings):
        r = campaigns.table2(settings, platforms=("intel-9700kf",), workloads=("nbody",))
        assert set(r.sds) == {"omp", "sycl"}
        for model in ("omp", "sycl"):
            assert set(r.sds[model]) == set(STRATEGY_NAMES)
            assert all(v >= 0 for v in r.sds[model].values())
        assert "(paper)" in r.render()


class TestInjectionTables:
    def test_intel_rows(self, settings):
        r = campaigns.injection_table(
            "nbody", settings, platforms=("intel-9700kf",), strategies=("Rm", "RmHK2")
        )
        rows = r.rows_by_platform["intel-9700kf"]
        assert [row.label for row in rows] == ["OMP #1", "SYCL #1", "OMP #2", "SYCL #2"]
        for row in rows:
            assert set(row.deltas) == {"Rm", "RmHK2"}
        assert "Table 3" in r.render()

    def test_amd_minife_has_eight_rows(self, settings):
        groups = campaigns._row_groups("amd-9950x3d", "minife")
        assert len(groups) == 8
        assert ("SYCL SMT #2", "sycl", True, 2) in groups

    def test_amd_nbody_has_four_rows(self, settings):
        assert len(campaigns._row_groups("amd-9950x3d", "nbody")) == 4

    def test_deltas_export(self, settings):
        r = campaigns.injection_table(
            "nbody", settings, platforms=("intel-9700kf",), strategies=("Rm",)
        )
        deltas = r.deltas()
        assert ("intel-9700kf", "OMP #1", "Rm") in deltas


class TestTable6:
    def test_aggregates_models(self, settings):
        t3 = campaigns.injection_table(
            "nbody", settings, platforms=("intel-9700kf",), strategies=("Rm",)
        )
        r = campaigns.table6(settings, tables=[t3])
        assert "omp" in r.averages and "sycl" in r.averages
        assert isinstance(r.sycl_advantage(), float)
        assert "Table 6" in r.render()


class TestConfigStore:
    def test_config_cached_on_disk(self, settings):
        info1 = campaigns.build_noise_config(
            settings, "intel-9700kf", "nbody", ("Rm", "omp", True), idx=1
        )
        info2 = campaigns.build_noise_config(
            settings, "intel-9700kf", "nbody", ("Rm", "omp", True), idx=1
        )
        assert info1.worst_exec_time == info2.worst_exec_time
        assert info1.config.n_events == info2.config.n_events

    def test_distinct_indices_distinct_configs(self, settings):
        a = campaigns.build_noise_config(
            settings, "intel-9700kf", "nbody", ("Rm", "omp", True), idx=1
        )
        b = campaigns.build_noise_config(
            settings, "intel-9700kf", "nbody", ("Rm", "omp", True), idx=2
        )
        assert a.worst_exec_time != b.worst_exec_time

    def test_source_label_recorded(self, settings):
        info = campaigns.build_noise_config(
            settings, "intel-9700kf", "nbody", ("TP", "omp", True), idx=1
        )
        assert info.source_label == "TP-OMP"

    @pytest.mark.parametrize("field", ["policy", "source"])
    def test_flipped_entry_recollects_the_clean_config(self, settings, tmp_path, field):
        """Flip the case of one byte the way the ``corrupt-store`` chaos
        profile does: the first character of a ``policy`` value (an
        unknown policy) or of a ``source`` name (a silently different
        config) past the entry's midpoint.  The entry is quarantined
        and the config re-collected, equal to a clean start's."""
        args = ("intel-9700kf", "nbody", ("Rm", "omp", True))
        clean = campaigns.build_noise_config(
            campaigns.CampaignSettings(
                seed=2025, collect_reps=6, collect_batches=2,
                cache=ResultCache(tmp_path / "clean"),
            ),
            *args, idx=1,
        )
        campaigns.build_noise_config(settings, *args, idx=1)
        [entry] = settings.cache.root.glob("cfg_*.json")
        raw = entry.read_bytes()
        marker = f'\\"{field}\\": \\"'.encode()
        at = raw.index(marker, len(raw) // 2) + len(marker)
        assert chr(raw[at]).isalpha()
        entry.write_bytes(raw[:at] + bytes([raw[at] ^ 0x20]) + raw[at + 1:])

        again = campaigns.build_noise_config(settings, *args, idx=1)
        assert again.config.to_json() == clean.config.to_json()
        assert again.worst_exec_time == clean.worst_exec_time
        assert settings.cache.stats()["integrity_quarantined"] == 1
        assert entry.with_name(entry.name + ".corrupt").exists()
        assert campaigns.build_noise_config(settings, *args, idx=1).config.to_json() == (
            clean.config.to_json()
        )


class TestConfigKey:
    """A cached config is keyed by everything that shapes it, so two
    campaigns sharing one cache each get what a fresh cache gives them."""

    @pytest.mark.parametrize(
        "other", [dict(seed=2026), dict(collect_reps=4), dict(collect_batches=1)]
    )
    def test_shared_cache_serves_each_setting_its_own_config(self, tmp_path, other):
        args = ("intel-9700kf", "nbody", ("Rm", "omp", True), 1)
        base = dict(seed=2025, collect_reps=6, collect_batches=2)

        def build(cache, **kw):
            settings = campaigns.CampaignSettings(cache=cache, **{**base, **kw})
            info = campaigns.build_noise_config(settings, *args)
            return info.config.to_json(), info.worst_exec_time.hex(), info.n_runs

        shared = ResultCache(tmp_path / "shared")
        assert build(shared) == build(ResultCache(tmp_path / "fresh-a"))
        assert build(shared, **other) == build(ResultCache(tmp_path / "fresh-b"), **other)
        assert len(list(shared.root.glob("cfg_*.json"))) == 2


class TestSettingsIsolation:
    """A cell's run settings come from the campaign that runs it, never
    from another campaign sharing its cache or service."""

    def test_second_campaign_on_a_shared_cache_runs_its_own_settings(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.adaptive import AdaptivePolicy
        from repro.harness.chaos import ChaosError
        from repro.harness.experiment import ExperimentSpec
        from repro.harness.faults import FaultPolicy

        monkeypatch.setenv("REPRO_BASELINE_REPS", "6")
        cache = ResultCache(tmp_path)
        adaptive = AdaptivePolicy(target_rel_hw=0.5, min_reps=3, batch=3)
        first = campaigns.CampaignSettings(
            cache=cache, jobs=1, adaptive=adaptive,
            fault_policy=FaultPolicy(on_failure="skip", max_retries=0, backoff_base=0.0),
        )
        second = campaigns.CampaignSettings(cache=cache, jobs=1)
        s = ExperimentSpec(platform="intel-9700kf", workload="nbody", seed=3)

        rs = second.submit_or_run(s)
        assert rs.adaptive is None and len(rs.times) == 6
        assert rs.spec.adaptive is None
        assert cache.entry_path(ResultCache._key(rs.spec, None, 6)).exists()
        assert first.submit_or_run(s).adaptive["policy"] == adaptive.to_dict()

        monkeypatch.setenv("REPRO_CHAOS", "raise!:5:1.0")
        with pytest.raises(ChaosError):
            second.submit_or_run(s.with_(seed=4))


class TestFigures:
    def test_figure1_series(self, settings):
        r = campaigns.figure1(settings, schedules=("static",), chunks=(1,))
        assert set(r.series) == {"A64FX:w/o", "A64FX:reserved"}
        assert r.x_labels == ["st:1"]
        assert "Figure 1" in r.render()

    def test_figure2_series(self, settings):
        r = campaigns.figure2(settings, thread_counts=(8,))
        assert r.x_labels == ["8"]
        assert all(len(pts) == 1 for pts in r.series.values())

    def test_variability_ratio_positive(self, settings):
        r = campaigns.figure1(settings, schedules=("static",), chunks=(1,))
        assert r.variability_ratio() > 0


class TestPaperReference:
    def test_table7_configs_cover_paper_rows(self):
        from repro.harness import paper_reference as paper

        assert set(campaigns._TABLE7_CONFIGS) == set(paper.TABLE7)

    def test_table7_platform_split_matches_paper(self):
        # six Intel configs, four AMD (paper §5.2)
        plats = [v[0] for v in campaigns._TABLE7_CONFIGS.values()]
        assert plats.count("intel-9700kf") == 6
        assert plats.count("amd-9950x3d") == 4

    def test_reference_tables_have_all_strategy_columns(self):
        from repro.harness import paper_reference as paper
        from repro.mitigation.strategies import STRATEGY_NAMES

        for table in (paper.TABLE3, paper.TABLE4, paper.TABLE5):
            for plat, rows in table.items():
                for label, cells in rows.items():
                    assert set(cells["exec"]) == set(STRATEGY_NAMES)
                    assert set(cells["delta"]) == set(STRATEGY_NAMES)

    def test_row_groups_match_reference_labels(self):
        from repro.harness import paper_reference as paper

        for wl, table in (("nbody", paper.TABLE3), ("babelstream", paper.TABLE4), ("minife", paper.TABLE5)):
            for plat, rows in table.items():
                labels = [g[0] for g in campaigns._row_groups(plat, wl)]
                assert set(labels) == set(rows), (wl, plat)


class TestStudies:
    def test_runlevel3(self, settings):
        r = campaigns.runlevel3_study(settings)
        assert r.sd_gui >= 0 and r.sd_runlevel3 >= 0
        assert "Runlevel-3" in r.render()
