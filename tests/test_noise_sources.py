"""Tests for the unified NoiseSource protocol, registry, and stack.

Every noise mechanism in the repo must (a) be discoverable through the
registry, (b) round-trip through the common JSON envelope with a stable
spec hash, and (c) compose with any other source in a
:class:`~repro.noise.NoiseStack` without losing determinism.  The
per-kind classes at the end drive each source through
``attach()``/``start()`` on a bare machine.
"""

import hashlib
import inspect
import json
import pickle
import warnings

import numpy as np
import pytest

from repro.core.config import ConfigEvent, NoiseConfig
from repro.core.events import EventType
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.noise import (
    BackgroundNoiseSource,
    HpasCacheThrashSource,
    HpasCpuOccupySource,
    HpasMemoryBandwidthSource,
    IoBurst,
    IoNoiseSource,
    MemoryNoiseEvent,
    MemoryNoiseSource,
    NoiseStack,
    REQUIRED,
    TraceReplaySource,
    available_sources,
    get_source_type,
    parse_noise_spec,
    source_from_json,
)
from repro.sim.task import Task

from conftest import make_machine

ALL_KINDS = [
    "background",
    "hpas.cache_thrash",
    "hpas.cpu_occupy",
    "hpas.membw",
    "io",
    "memory",
    "trace-replay",
]


def tiny_config():
    return NoiseConfig(
        {
            0: [
                ConfigEvent(
                    start=0.05,
                    duration=2e-3,
                    policy="SCHED_FIFO",
                    rt_priority=90,
                    weight=1.0,
                    etype=EventType.IRQ,
                    source="test",
                )
            ]
        }
    )


def one_of_each():
    """A representative instance of every registered source kind."""
    return {
        "trace-replay": TraceReplaySource(tiny_config()),
        "io": IoNoiseSource([IoBurst(start=0.02, duration=0.1, irq_cpus=(0, 1))]),
        "memory": MemoryNoiseSource(
            [MemoryNoiseEvent(start=0.0, duration=0.2, bandwidth_gbs=15.0)]
        ),
        "hpas.cpu_occupy": HpasCpuOccupySource(
            start=0.01, duration=0.1, cpus=(0,), utilization=0.5
        ),
        "hpas.membw": HpasMemoryBandwidthSource(
            start=0.0, duration=0.15, bandwidth_gbs=12.0, streams=2
        ),
        "hpas.cache_thrash": HpasCacheThrashSource(
            start=0.02, duration=0.1, cpus=(0, 1), bandwidth_gbs=6.0
        ),
        "background": BackgroundNoiseSource.preset("desktop-nogui", intensity=0.5),
    }


#: ``one_of_each()[kind].spec_hash()``; a change breaks every cached
#: entry and queued job that carries the kind
SPEC_HASHES = {
    "trace-replay": "aeef7529187149e8",
    "io": "a69d2be12026b83d",
    "memory": "976090ee0ef24ad3",
    "hpas.cpu_occupy": "df75a154ab73ba22",
    "hpas.membw": "5cccfd133bf83930",
    "hpas.cache_thrash": "adf69432610bd75e",
    "background": "e94762ac33f1cf2a",
}

#: per-rep exec times (float hex) of a 2-rep babelstream cell under the
#: kinds no golden case replays; the noise-free cell takes 0x1.baf9...p-3
EXEC_TIME_PINS = {
    "memory": ["0x1.36089b88df802p-2", "0x1.35649cf848e42p-2"],
    "hpas.membw": ["0x1.258d6e989b897p-2", "0x1.24fd413fbf76ap-2"],
    "hpas.cache_thrash": ["0x1.215aa90e01d52p-2", "0x1.1f6af6f2e45f9p-2"],
}


#: ``parse_noise_spec(flag)`` as ``(spec_hash(), sha256(to_json())[:16])``
#: for every kind, with and without its optional keys (``{path}`` is a
#: saved ``tiny_config()``); flags and constructors must key alike
FLAG_PINS = {
    "trace-replay:path={path}": ("aeef7529187149e8", "ba7d94d0c3384bf7"),
    "io:start=0.02,duration=0.1": ("71f0eec1437ebf6e", "481e6d293446f427"),
    "io:start=0.02,duration=0.1,irq_rate=3000,irq_duration=1e-5,irq_cpus=0+2,"
    "flush_cpu_time=0.01,flush_segments=6": ("0bedde9a9188117e", "6b4448765867e2ec"),
    "memory:start=0,duration=0.2,bandwidth_gbs=15": ("976090ee0ef24ad3", "6224bbf8a8606994"),
    "memory:start=0,duration=0.2,bandwidth_gbs=15,source=hog": (
        "0bc6793cb3142a21", "40a5ceccdb161196"
    ),
    "hpas.cpu_occupy:start=0.01,duration=0.1,cpus=0": ("5ddfbb44ef9a934c", "0392e56bffd96588"),
    "hpas.cpu_occupy:start=0.01,duration=0.1,cpus=0+1,utilization=0.5,period=0.02": (
        "063621a4b027e04a", "a84cf0f082b231f9"
    ),
    "hpas.membw:start=0,duration=0.15,bandwidth_gbs=12": ("74f1a8b75d89b252", "c178b6ef18eb3af8"),
    "hpas.membw:start=0,duration=0.15,bandwidth_gbs=12,streams=2": (
        "5cccfd133bf83930", "5b65171b741084a8"
    ),
    "hpas.cache_thrash:start=0.02,duration=0.1,cpus=0+1": ("e924ec340949764d", "7bfb85ead2c194d0"),
    "hpas.cache_thrash:start=0.02,duration=0.1,cpus=0+1,bandwidth_gbs=6": (
        "adf69432610bd75e", "84b9046f75a0d6bc"
    ),
    "background:preset=hpc": ("3165d6318391d266", "49281956f5506233"),
    "background:preset=desktop-nogui,intensity=0.5,anomaly_prob=0.1": (
        "150e015e9fa4bc54", "c0dfff7dbb8d3e86"
    ),
}

#: flags with a NaN or infinite number; each must fail while parsing,
#: before any rep runs, not inside the simulator
NON_FINITE_FLAGS = [
    "memory:start=nan,duration=0.05,bandwidth_gbs=40",
    "memory:start=0,duration=nan,bandwidth_gbs=40",
    "memory:start=0,duration=0.05,bandwidth_gbs=inf",
    "io:start=inf,duration=0.1",
    "io:start=0,duration=0.1,irq_duration=nan",
    "io:start=0,duration=0.1,flush_cpu_time=inf",
    "hpas.cpu_occupy:start=nan,duration=0.1,cpus=0",
    "hpas.cpu_occupy:start=0,duration=inf,cpus=0",
    "hpas.cpu_occupy:start=0,duration=0.1,cpus=0,utilization=0.5,period=nan",
    "hpas.membw:start=0,duration=nan,bandwidth_gbs=12",
    "hpas.membw:start=0,duration=0.1,bandwidth_gbs=inf",
    "hpas.cache_thrash:start=nan,duration=0.1,cpus=0",
    "hpas.cache_thrash:start=0,duration=0.1,cpus=0,bandwidth_gbs=nan",
    "background:preset=hpc,intensity=nan",
    "background:preset=hpc,intensity=inf",
]


def spec(**kw):
    defaults = dict(
        platform="intel-9700kf", workload="schedbench", model="omp", reps=2, seed=11
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_builtin_kinds_registered(self):
        assert available_sources() == ALL_KINDS

    def test_get_source_type(self):
        assert get_source_type("io") is IoNoiseSource
        assert get_source_type("trace-replay") is TraceReplaySource

    def test_unknown_kind_rejected_with_listing(self):
        with pytest.raises(KeyError, match="io"):
            get_source_type("does-not-exist")

    def test_every_kind_declares_fields(self):
        for kind in available_sources():
            fields = get_source_type(kind).fields
            assert fields and all(len(row) == 4 and row[3] for row in fields)

    def test_field_defaults_match_constructors(self):
        # an omitted flag builds what the omitted keyword argument builds
        targets = {
            "background": BackgroundNoiseSource.preset,
            "io": IoBurst,
            "memory": MemoryNoiseEvent,
        }
        for kind in available_sources():
            cls = get_source_type(kind)
            signature = inspect.signature(targets.get(kind, cls))
            for name, _, default, _ in cls.fields:
                if default is not REQUIRED:
                    assert signature.parameters[name].default == default, (kind, name)


# ----------------------------------------------------------------------
# serialization: the common envelope
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_json_round_trip(self, kind):
        src = one_of_each()[kind]
        clone = source_from_json(src.to_json())
        assert type(clone) is type(src)
        assert clone.to_dict() == src.to_dict()
        assert clone == src

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_envelope_shape(self, kind):
        d = one_of_each()[kind].to_dict()
        assert set(d) == {"kind", "version", "params"}
        assert d["kind"] == kind
        json.dumps(d)  # must be pure-JSON serialisable

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spec_hash_stable_across_round_trip(self, kind):
        src = one_of_each()[kind]
        h = src.spec_hash()
        assert len(h) == 16 and int(h, 16) >= 0
        assert source_from_json(src.to_json()).spec_hash() == h

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spec_hash_pinned(self, kind):
        # The wire format is the cache key, the store entry and the
        # queued-job row: any change to a kind's params() payload shows
        # up here first.
        assert one_of_each()[kind].spec_hash() == SPEC_HASHES[kind]

    def test_spec_hash_differs_between_params(self):
        a = HpasMemoryBandwidthSource(start=0.0, duration=0.1, bandwidth_gbs=10.0)
        b = HpasMemoryBandwidthSource(start=0.0, duration=0.1, bandwidth_gbs=11.0)
        assert a.spec_hash() != b.spec_hash()

    def test_stack_round_trip(self):
        sources = one_of_each()
        stack = NoiseStack(
            [sources["trace-replay"], sources["hpas.cache_thrash"], sources["io"]]
        )
        clone = NoiseStack.from_json(stack.to_json())
        assert clone.to_dict() == stack.to_dict()
        assert clone.kinds() == ["trace-replay", "hpas.cache_thrash", "io"]
        assert clone.spec_hash() == stack.spec_hash()

    def test_stack_pickles(self):
        stack = NoiseStack([one_of_each()["memory"]])
        clone = pickle.loads(pickle.dumps(stack))
        assert clone.to_dict() == stack.to_dict()


# ----------------------------------------------------------------------
# stack semantics
# ----------------------------------------------------------------------
class TestStack:
    def test_flattens_nested_stacks(self):
        srcs = one_of_each()
        inner = NoiseStack([srcs["io"], srcs["memory"]])
        outer = NoiseStack([srcs["trace-replay"], inner])
        assert outer.kinds() == ["trace-replay", "io", "memory"]

    def test_coerce_source_and_list(self):
        assert NoiseStack.coerce(None) is None
        src = one_of_each()["io"]
        assert NoiseStack.coerce(src).kinds() == ["io"]
        both = NoiseStack.coerce([src, one_of_each()["memory"]])
        assert both.kinds() == ["io", "memory"]
        assert NoiseStack.coerce(both) is both

    def test_coerce_rejects_bare_configs(self):
        from repro.sim.noise import desktop_noise

        for bare in (tiny_config(), desktop_noise(), [tiny_config()]):
            with pytest.raises(TypeError):
                NoiseStack.coerce(bare)

    def test_empty_stack_is_falsy(self):
        assert not NoiseStack([])
        assert len(NoiseStack([])) == 0

    def test_rt_throttle_policy(self):
        srcs = one_of_each()
        assert NoiseStack([srcs["trace-replay"]]).disables_rt_throttle
        assert NoiseStack([srcs["io"]]).disables_rt_throttle
        assert not NoiseStack([srcs["background"]]).disables_rt_throttle
        assert NoiseStack([srcs["background"], srcs["io"]]).disables_rt_throttle


# ----------------------------------------------------------------------
# composed execution (extensions generators under the protocol)
# ----------------------------------------------------------------------
class TestComposedExecution:
    def test_hpas_and_replay_compose_in_one_run(self):
        srcs = one_of_each()
        stack = NoiseStack(
            [srcs["trace-replay"], srcs["hpas.cache_thrash"], srcs["hpas.membw"]]
        )
        baseline = run_experiment(spec())
        injected = run_experiment(spec(), noise=stack)
        assert injected.injected and not baseline.injected
        assert injected.times.mean() > baseline.times.mean()

    def test_composite_run_is_deterministic(self):
        srcs = one_of_each()
        stack = NoiseStack([srcs["io"], srcs["memory"], srcs["background"]])
        a = run_experiment(spec(), noise=stack)
        b = run_experiment(spec(), noise=stack)
        np.testing.assert_array_equal(a.times, b.times)

    def test_source_order_is_part_of_the_seed_contract(self):
        # Child RNGs key off stack position: reordering stochastic
        # sources is a different (still deterministic) experiment.
        srcs = one_of_each()
        ab = run_experiment(spec(), noise=NoiseStack([srcs["io"], srcs["background"]]))
        ab2 = run_experiment(spec(), noise=NoiseStack([srcs["io"], srcs["background"]]))
        np.testing.assert_array_equal(ab.times, ab2.times)

    @pytest.mark.parametrize("kind", sorted(EXEC_TIME_PINS))
    def test_exec_times_pinned(self, kind):
        from repro.harness.executor import SerialExecutor

        s = spec(workload="babelstream", workload_params={"iters": 12})
        rs = run_experiment(s, noise=one_of_each()[kind], executor=SerialExecutor())
        assert [t.hex() for t in rs.times] == EXEC_TIME_PINS[kind]

    @pytest.mark.parametrize("kind", sorted(EXEC_TIME_PINS))
    def test_exec_times_pinned_on_a_pool(self, kind):
        # each rep's source is pickled to its own worker process
        from repro.harness.executor import ParallelExecutor

        s = spec(workload="babelstream", workload_params={"iters": 12})
        with ParallelExecutor(2) as ex:
            rs = run_experiment(s, noise=one_of_each()[kind], executor=ex)
            assert ex.stats()["pickle_chunks"] == 2
        assert [t.hex() for t in rs.times] == EXEC_TIME_PINS[kind]

    def test_single_source_equivalent_to_stack_of_one(self):
        src = TraceReplaySource(tiny_config())
        a = run_experiment(spec(), noise=src)
        b = run_experiment(spec(), noise=NoiseStack([src]))
        np.testing.assert_array_equal(a.times, b.times)


# ----------------------------------------------------------------------
# spec integration
# ----------------------------------------------------------------------
class TestSpecIntegration:
    def test_spec_noise_field_drives_runs(self):
        s = spec(noise=TraceReplaySource(tiny_config()))
        rs = run_experiment(s)
        assert rs.injected

    def test_spec_coerces_source_to_stack(self):
        s = spec(noise=TraceReplaySource(tiny_config()), workload_params=None)
        assert isinstance(s.noise, NoiseStack) and s.noise.kinds() == ["trace-replay"]
        assert s.workload_params == {}
        with pytest.raises(TypeError):
            spec(noise=tiny_config())

    def test_spec_with_preserves_noise(self):
        s = spec(noise=TraceReplaySource(tiny_config()))
        assert s.with_(seed=99).noise is s.noise

    def test_spec_with_noise_pickles(self):
        s = spec(noise=NoiseStack([one_of_each()["io"]]))
        clone = pickle.loads(pickle.dumps(s))
        assert clone.noise.to_dict() == s.noise.to_dict()

    def test_modern_path_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment(spec(), noise=TraceReplaySource(tiny_config()))


# ----------------------------------------------------------------------
# CLI spec grammar
# ----------------------------------------------------------------------
class TestParseNoiseSpec:
    def test_bare_kind_with_defaults(self):
        src = parse_noise_spec("background:preset=hpc")
        assert isinstance(src, BackgroundNoiseSource)

    def test_params_and_cpu_lists(self):
        src = parse_noise_spec("io:start=0.01,duration=0.1,irq_cpus=0+2")
        assert isinstance(src, IoNoiseSource)
        assert src.bursts[0].irq_cpus == (0, 2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise source"):
            parse_noise_spec("warp-drive:x=1")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="frobnicate"):
            parse_noise_spec("memory:start=0,duration=0.1,bandwidth_gbs=5,frobnicate=1")

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="duration"):
            parse_noise_spec("memory:start=0")

    def test_malformed_pair(self):
        with pytest.raises(ValueError):
            parse_noise_spec("io:start")

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ValueError, match="'start' given twice"):
            parse_noise_spec("io:start=0,duration=1,start=5")

    @pytest.mark.parametrize("flag", NON_FINITE_FLAGS)
    def test_non_finite_number_rejected(self, flag):
        with pytest.raises(ValueError, match="finite"):
            parse_noise_spec(flag)

    @pytest.mark.parametrize("flag", sorted(FLAG_PINS))
    def test_flag_built_sources_pinned(self, flag, tmp_path):
        path = tmp_path / "cfg.json"
        tiny_config().save(path)
        src = parse_noise_spec(flag.format(path=path))
        digest = hashlib.sha256(src.to_json().encode()).hexdigest()[:16]
        assert (src.spec_hash(), digest) == FLAG_PINS[flag]
        assert source_from_json(src.to_json()).to_json() == src.to_json()


# ----------------------------------------------------------------------
# per-kind behaviour, driven through attach()/start()
# ----------------------------------------------------------------------
def run_pinned(source, work=1.0, mem_demand=0.0, occupy_all=False, seed=0, tracing=False):
    """A pinned ``work``-second worker on cpu 0 (spinners on every other
    CPU when ``occupy_all``) under ``source`` on a quiet machine."""
    m = make_machine(seed=seed, rt_throttle=False, tracing=tracing)

    def start(mm):
        w = Task("w", work=work, mem_demand=mem_demand, affinity=frozenset({0}), pinned=True)
        w.on_complete = lambda t: mm.workload_done()
        mm.scheduler.submit(w, cpu=0)
        if occupy_all:
            for c in range(1, mm.topology.n_logical):
                mm.scheduler.submit(Task(f"s{c}", affinity=frozenset({c}), pinned=True), cpu=c)
        source.attach(mm, np.random.default_rng(seed)).start(work)

    return m.run(start, expected_duration=work)


def traced_busy(result, name):
    """``(cpus, total seconds)`` the trace recorded for one noise task name."""
    trace = result.trace
    sel = trace.source_ids == trace.sources.index(name)
    return sorted(set(trace.cpus[sel].tolist())), float(trace.durations[sel].sum())


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: IoBurst(start=NAN, duration=0.1),
        lambda: IoBurst(start=0.0, duration=0.1, irq_rate=INF),
        lambda: MemoryNoiseEvent(0.0, INF, 10.0),
        lambda: HpasCpuOccupySource(start=NAN, duration=0.1, cpus=(0,)),
        lambda: HpasMemoryBandwidthSource(start=0.0, duration=0.1, bandwidth_gbs=NAN),
        lambda: HpasCacheThrashSource(start=0.0, duration=INF, cpus=(0,)),
        lambda: BackgroundNoiseSource.preset("hpc", intensity=INF),
    ],
    ids=["io-start", "io-irq_rate", "memory-duration", "cpu_occupy-start",
         "membw-bandwidth", "cache_thrash-duration", "background-intensity"],
)
def test_constructors_reject_non_finite_numbers(build):
    with pytest.raises(ValueError, match="finite"):
        build()


class TestIoSource:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            IoBurst(start=-1, duration=0.1)
        with pytest.raises(ValueError):
            IoBurst(start=0, duration=0)
        with pytest.raises(ValueError):
            IoBurst(start=0, duration=0.1, irq_rate=100, irq_cpus=())
        with pytest.raises(ValueError):
            IoBurst(start=0, duration=0.1, flush_segments=0)

    def test_bursts_sorted(self):
        src = IoNoiseSource([IoBurst(start=0.5, duration=0.1), IoBurst(start=0.1, duration=0.1)])
        assert [b.start for b in src.bursts] == [0.1, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IoNoiseSource([])

    def test_json_roundtrip(self):
        src = IoNoiseSource(
            [IoBurst(start=0.1, duration=0.2, irq_cpus=(0, 3), flush_cpu_time=0.01)],
            meta={"origin": "checkpoint"},
        )
        back = source_from_json(src.to_json())
        assert back == src
        assert back.bursts[0].irq_cpus == (0, 3)
        assert back.meta["origin"] == "checkpoint"

    def test_irq_slices_land_on_their_cpu(self):
        src = IoNoiseSource(
            [IoBurst(start=0.1, duration=0.2, irq_rate=3000, irq_duration=10e-6,
                     irq_cpus=(2,), flush_cpu_time=0.0)]
        )
        cpus, busy = traced_busy(run_pinned(src, work=0.5, tracing=True), "inject:nvme-completion")
        # 3000/s * 0.2s * 10us of completion work, all on cpu 2
        assert cpus == [2]
        assert busy == pytest.approx(0.006)

    def test_flusher_cpu_time_total(self):
        src = IoNoiseSource(
            [IoBurst(start=0.1, duration=0.2, irq_rate=0, flush_cpu_time=0.03, flush_segments=6)]
        )
        cpus, busy = traced_busy(run_pinned(src, work=0.5, tracing=True), "inject:kworker-flush")
        assert 0 not in cpus  # idle CPUs absorb the unbound kworkers
        assert busy == pytest.approx(0.03)

    def test_irq_storm_delays_target_cpu(self):
        src = IoNoiseSource(
            [IoBurst(start=0.1, duration=0.4, irq_rate=5000, irq_duration=20e-6,
                     irq_cpus=(0,), flush_cpu_time=0.0)]
        )
        # 5000/s * 0.4s * 20us = 40ms of irq busy on cpu 0
        assert run_pinned(src, occupy_all=True).exec_time == pytest.approx(1.04, rel=0.02)

    def test_flushers_absorbed_by_idle_cpus(self):
        src = IoNoiseSource([IoBurst(start=0.0, duration=0.5, irq_rate=0, flush_cpu_time=0.3)])
        full = run_pinned(src, occupy_all=True)
        absorbed = run_pinned(src, occupy_all=False)
        assert absorbed.exec_time < full.exec_time

    def test_flushers_timeshare_when_machine_full(self):
        src = IoNoiseSource(
            [IoBurst(start=0.0, duration=0.2, irq_rate=0, flush_cpu_time=0.4, flush_segments=8)]
        )
        assert run_pinned(src, occupy_all=True).exec_time > 1.01

    def test_deterministic(self):
        src = IoNoiseSource([IoBurst(start=0.1, duration=0.3, flush_cpu_time=0.1)])
        a = run_pinned(src, occupy_all=True, seed=4)
        b = run_pinned(src, occupy_all=True, seed=4)
        assert a.exec_time == b.exec_time


class TestMemorySource:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryNoiseEvent(start=-1, duration=0.1, bandwidth_gbs=10)
        with pytest.raises(ValueError):
            MemoryNoiseEvent(start=0, duration=0, bandwidth_gbs=10)
        with pytest.raises(ValueError):
            MemoryNoiseEvent(start=0, duration=0.1, bandwidth_gbs=0)

    def test_events_sorted(self):
        src = MemoryNoiseSource(
            [MemoryNoiseEvent(0.5, 0.1, 1.0), MemoryNoiseEvent(0.1, 0.1, 1.0)]
        )
        assert [e.start for e in src.events] == [0.1, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MemoryNoiseSource([])

    def test_json_roundtrip(self):
        src = MemoryNoiseSource(
            [MemoryNoiseEvent(0.1, 0.2, 15.0, source="hog")], meta={"generator": "membw"}
        )
        back = source_from_json(src.to_json())
        assert back == src
        assert back.events == (MemoryNoiseEvent(0.1, 0.2, 15.0, source="hog"),)
        assert back.meta["generator"] == "membw"

    def _exec_time(self, event, mem_demand):
        return run_pinned(MemoryNoiseSource([event]), mem_demand=mem_demand).exec_time

    def test_slows_streaming_workload(self):
        # workload pulls 30 GB/s on a 38 GB/s machine; a 20 GB/s hog on
        # another (idle) cpu saturates the bus
        quiet = self._exec_time(MemoryNoiseEvent(5.0, 0.1, 20.0), mem_demand=30.0)
        noisy = self._exec_time(MemoryNoiseEvent(0.0, 2.0, 20.0), mem_demand=30.0)
        assert noisy > quiet * 1.15

    def test_invisible_to_compute_workload(self):
        # the paper's asymmetry: CPU-idle memory hogs do not disturb
        # compute-bound threads
        quiet = self._exec_time(MemoryNoiseEvent(5.0, 0.1, 20.0), mem_demand=0.0)
        noisy = self._exec_time(MemoryNoiseEvent(0.0, 2.0, 20.0), mem_demand=0.0)
        assert noisy == pytest.approx(quiet, rel=1e-6)


class TestHpasSources:
    def test_cpu_occupy_full(self):
        cfg = HpasCpuOccupySource(start=0.0, duration=0.5, cpus=(0, 1)).config
        assert cfg.n_cpus == 2
        assert cfg.n_events == 2
        assert cfg.total_busy_time() == pytest.approx(1.0)

    def test_cpu_occupy_square_wave(self):
        src = HpasCpuOccupySource(start=0.0, duration=0.1, cpus=(0,), utilization=0.5, period=10e-3)
        events = src.config.events_per_cpu[0]
        assert len(events) == 10
        assert sum(e.duration for e in events) == pytest.approx(0.05)

    def test_cpu_occupy_runs_as_other(self):
        src = HpasCpuOccupySource(start=0.0, duration=0.1, cpus=(0,))
        assert src.config.events_per_cpu[0][0].policy == "SCHED_OTHER"

    def test_cpu_occupy_validation(self):
        with pytest.raises(ValueError):
            HpasCpuOccupySource(0.0, 0.1, cpus=())
        with pytest.raises(ValueError):
            HpasCpuOccupySource(0.0, 0.1, cpus=(0,), utilization=0.0)
        with pytest.raises(ValueError):
            HpasCpuOccupySource(0.0, -1.0, cpus=(0,))

    def test_cpu_occupy_timeshares_with_pinned_worker(self):
        src = HpasCpuOccupySource(start=0.1, duration=0.2, cpus=(0,))
        # the OTHER hog replays through the paper's injector and
        # timeshares with the pinned worker: +~0.2s
        assert run_pinned(src, work=0.5, occupy_all=True).exec_time == pytest.approx(0.7, rel=0.05)

    def test_membw_splits_streams(self):
        src = HpasMemoryBandwidthSource(start=0.0, duration=1.0, bandwidth_gbs=30.0, streams=3)
        assert len(src.events) == 3
        assert sum(e.bandwidth_gbs for e in src.events) == pytest.approx(30.0)
        with pytest.raises(ValueError):
            HpasMemoryBandwidthSource(start=0.0, duration=1.0, bandwidth_gbs=30.0, streams=0)

    def test_cache_thrash_per_cpu(self):
        src = HpasCacheThrashSource(start=0.0, duration=0.5, cpus=(0, 1, 2))
        assert [e.source for e in src.events] == [
            "hpas-cachecopy-0", "hpas-cachecopy-1", "hpas-cachecopy-2"
        ]
        with pytest.raises(ValueError):
            HpasCacheThrashSource(start=0.0, duration=0.5, cpus=())

    @pytest.mark.parametrize("bad", [2.5, INF, NAN, "two", None])
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda v: HpasMemoryBandwidthSource(0.0, 1.0, 30.0, streams=v), "streams"),
            (lambda v: HpasCacheThrashSource(0.0, 0.5, cpus=(1, v)), "cpus"),
            (lambda v: HpasCpuOccupySource(0.0, 0.1, cpus=(v,)), "cpus"),
        ],
        ids=["membw.streams", "cache_thrash.cpus", "cpu_occupy.cpus"],
    )
    def test_counts_and_cpus_must_be_whole_numbers(self, build, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            build(bad)

    def test_integral_floats_key_as_their_ints(self):
        pairs = [
            (HpasMemoryBandwidthSource(0.0, 1.0, 30.0, streams=2.0),
             HpasMemoryBandwidthSource(0.0, 1.0, 30.0, streams=2)),
            (HpasCacheThrashSource(0.0, 0.5, cpus=(0.0, 3.0)),
             HpasCacheThrashSource(0.0, 0.5, cpus=(0, 3))),
            (HpasCpuOccupySource(0.0, 0.1, cpus=(np.int64(1), 2.0)),
             HpasCpuOccupySource(0.0, 0.1, cpus=(1, 2))),
        ]
        for a, b in pairs:
            assert a.to_json() == b.to_json() and a.spec_hash() == b.spec_hash()
        assert type(pairs[0][0].streams) is int
        assert all(type(c) is int for c in pairs[2][0].cpus)
