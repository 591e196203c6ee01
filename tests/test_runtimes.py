"""Unit tests for the OpenMP-like and SYCL-like runtimes."""

import pytest

from repro.runtimes import get_runtime
from repro.runtimes.base import Placement, Region, split_static
from repro.runtimes.openmp import OpenMPRuntime
from repro.runtimes import sycl as sycl_mod
from repro.runtimes.sycl import SYCLRuntime
from repro.sim.task import SchedPolicy, Task, TaskKind

from conftest import make_machine


def run_regions(regions, model="omp", n_threads=4, pinned=True, machine=None, noise_at=None, noise_dur=0.2, noise_cpu=0):
    """Execute a region list on a quiet 8-CPU machine; returns exec time."""
    m = machine if machine is not None else make_machine()
    rt = get_runtime(model)
    placement = Placement(cpus=tuple(range(n_threads)), n_threads=n_threads, pinned=pinned)

    def start(mm):
        rt.launch(mm, iter(regions), placement)
        if noise_at is not None:
            def fire():
                noise = Task(
                    "noise",
                    policy=SchedPolicy.FIFO,
                    rt_priority=90,
                    kind=TaskKind.IRQ_NOISE,
                    work=noise_dur,
                    affinity=frozenset({noise_cpu}),
                )
                mm.scheduler.submit(noise, cpu=noise_cpu)
            mm.engine.schedule(noise_at, fire)

    result = m.run(start, expected_duration=10.0)
    return result.exec_time


class TestRegionValidation:
    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            Region("r", total_work=-1.0)

    def test_rejects_unknown_schedule(self):
        with pytest.raises(ValueError):
            Region("r", total_work=1.0, schedule="weird")

    def test_rejects_bad_imbalance(self):
        with pytest.raises(ValueError):
            Region("r", total_work=1.0, imbalance=1.0)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            Region("r", total_work=1.0, sycl_efficiency=0.0)


class TestPlacement:
    def test_thread_count_bounded_by_cpus(self):
        with pytest.raises(ValueError):
            Placement(cpus=(0, 1), n_threads=3, pinned=False)

    def test_duplicate_cpus_rejected(self):
        with pytest.raises(ValueError):
            Placement(cpus=(0, 0), n_threads=1, pinned=False)


class TestSplitStatic:
    def test_balanced(self):
        shares = split_static(1.0, 4, 0.0)
        assert shares == [0.25] * 4

    def test_sums_to_total(self):
        shares = split_static(2.0, 5, 0.3)
        assert sum(shares) == pytest.approx(2.0)

    def test_spread_matches_imbalance(self):
        shares = split_static(1.0, 4, 0.2)
        base = 0.25
        assert max(shares) == pytest.approx(base * 1.2)
        assert min(shares) == pytest.approx(base * 0.8)

    def test_single_thread(self):
        assert split_static(1.0, 1, 0.5) == [1.0]


class TestOpenMP:
    def test_static_region_elapsed(self):
        t = run_regions([Region("r", total_work=4.0)], n_threads=4)
        assert t == pytest.approx(1.0, rel=0.01)

    def test_serial_region_runs_on_master(self):
        t = run_regions([Region("r", total_work=0.5, serial=True)], n_threads=4)
        assert t == pytest.approx(0.5, rel=0.01)

    def test_regions_sequential(self):
        regions = [Region(f"r{i}", total_work=1.0) for i in range(3)]
        t = run_regions(regions, n_threads=4)
        assert t == pytest.approx(0.75, rel=0.01)

    def test_imbalance_extends_region(self):
        balanced = run_regions([Region("r", total_work=4.0, imbalance=0.0)], n_threads=4)
        skewed = run_regions([Region("r", total_work=4.0, imbalance=0.2)], n_threads=4)
        assert skewed > balanced * 1.15

    def test_static_chunking_flattens_imbalance(self):
        plain = run_regions(
            [Region("r", total_work=4.0, imbalance=0.3)], n_threads=4
        )
        chunked = run_regions(
            [Region("r", total_work=4.0, imbalance=0.3, chunk_work=0.01)], n_threads=4
        )
        assert chunked < plain

    def test_dynamic_absorbs_imbalance(self):
        static = run_regions(
            [Region("r", total_work=4.0, imbalance=0.3)], n_threads=4
        )
        dynamic = run_regions(
            [Region("r", total_work=4.0, imbalance=0.3, schedule="dynamic", chunk_work=0.01)],
            n_threads=4,
        )
        assert dynamic < static

    def test_guided_close_to_dynamic(self):
        dyn = run_regions(
            [Region("r", total_work=4.0, schedule="dynamic", chunk_work=0.01)], n_threads=4
        )
        guided = run_regions(
            [Region("r", total_work=4.0, schedule="guided", chunk_work=0.01)], n_threads=4
        )
        assert guided == pytest.approx(dyn, rel=0.05)

    def test_reduction_adds_serial_combine(self):
        plain = run_regions([Region("r", total_work=4.0)], n_threads=4)
        red = run_regions([Region("r", total_work=4.0, reduction=True)], n_threads=4)
        assert red > plain

    def test_noise_on_static_straggler_blocks_region(self):
        # Pinned static region hit by 0.2s FIFO noise mid-flight: the
        # whole region waits (the paper's OpenMP sensitivity).
        quiet = run_regions([Region("r", total_work=4.0)], n_threads=4)
        noisy = run_regions(
            [Region("r", total_work=4.0)], n_threads=4, noise_at=0.5
        )
        assert noisy == pytest.approx(quiet + 0.2, rel=0.02)

    def test_empty_stream_finishes(self):
        t = run_regions([], n_threads=2)
        assert t < 1e-3

    def test_runtime_single_use(self):
        rt = OpenMPRuntime()
        m = make_machine()
        placement = Placement(cpus=(0,), n_threads=1, pinned=True)
        m.run(lambda mm: rt.launch(mm, iter([]), placement), expected_duration=0.1)
        with pytest.raises(RuntimeError):
            rt.launch(m, iter([]), placement)


class TestSYCL:
    def test_kernel_elapsed_includes_efficiency(self):
        omp = run_regions([Region("r", total_work=4.0, sycl_efficiency=0.5)], model="omp", n_threads=4)
        sycl = run_regions([Region("r", total_work=4.0, sycl_efficiency=0.5)], model="sycl", n_threads=4)
        assert sycl == pytest.approx(omp * 2.0, rel=0.05)

    def test_submission_cost_paid_per_kernel(self):
        few = run_regions(
            [Region("r", total_work=0.4, sycl_efficiency=1.0)], model="sycl", n_threads=4
        )
        many = run_regions(
            [Region(f"r{i}", total_work=0.004, sycl_efficiency=1.0) for i in range(100)],
            model="sycl",
            n_threads=4,
        )
        # same total work, 100x the submissions
        assert many > few + 90 * sycl_mod.SUBMIT_COST

    def test_stealing_absorbs_noise_better_than_static(self):
        quiet_omp = run_regions([Region("r", total_work=8.0)], model="omp", n_threads=4)
        noisy_omp = run_regions([Region("r", total_work=8.0)], model="omp", n_threads=4, noise_at=0.5)
        quiet_sycl = run_regions(
            [Region("r", total_work=8.0, sycl_efficiency=1.0)], model="sycl", n_threads=4
        )
        noisy_sycl = run_regions(
            [Region("r", total_work=8.0, sycl_efficiency=1.0)], model="sycl", n_threads=4, noise_at=0.5
        )
        omp_hit = noisy_omp - quiet_omp
        sycl_hit = noisy_sycl - quiet_sycl
        assert sycl_hit < omp_hit * 0.6

    def test_serial_region_on_host(self):
        t = run_regions(
            [Region("r", total_work=0.5, serial=True, sycl_efficiency=1.0)],
            model="sycl",
            n_threads=4,
        )
        assert t == pytest.approx(0.5, rel=0.01)


class TestRuntimeJitter:
    def test_sycl_jitter_exceeds_omp(self):
        assert SYCLRuntime.runtime_jitter_sd > OpenMPRuntime.runtime_jitter_sd

    def test_jitter_varies_run_to_run(self):
        times = []
        for seed in range(4):
            m = make_machine(seed=seed)
            rt = get_runtime("sycl")
            placement = Placement(cpus=(0, 1), n_threads=2, pinned=True)
            regions = [Region("r", total_work=1.0, sycl_efficiency=1.0)]
            rt.launch(m, iter(regions), placement)
            m.engine.run()
            times.append(m.engine.now)
        assert len(set(times)) == 4

    def test_jitter_deterministic_per_seed(self):
        times = []
        for _ in range(2):
            m = make_machine(seed=9)
            rt = get_runtime("sycl")
            placement = Placement(cpus=(0, 1), n_threads=2, pinned=True)
            regions = [Region("r", total_work=1.0, sycl_efficiency=1.0)]
            rt.launch(m, iter(regions), placement)
            m.engine.run()
            times.append(m.engine.now)
        assert times[0] == times[1]


class TestModelLookup:
    def test_known_models(self):
        assert isinstance(get_runtime("omp"), OpenMPRuntime)
        assert isinstance(get_runtime("openmp"), OpenMPRuntime)
        assert isinstance(get_runtime("sycl"), SYCLRuntime)
        assert isinstance(get_runtime("dpcpp"), SYCLRuntime)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_runtime("cuda")
