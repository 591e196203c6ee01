"""Figures 3–6 — the pipeline's structural artefacts, regenerated live.

* Fig. 3: OSnoise trace records (sample rows);
* Fig. 4: delta refinement of the worst case vs the average profile;
* Fig. 5: the per-CPU noise configuration structure;
* Fig. 6: injector processing overview (one process per configured CPU).
"""

import json

from repro.core.collection import collect_traces
from repro.core.config import generate_config
from repro.core.events import EventType
from repro.core.refine import refine_worst_case
from repro.harness.experiment import ExperimentSpec
from repro.noise import TraceReplaySource

from conftest import once


def _collection(settings):
    spec = ExperimentSpec(
        platform="intel-9700kf",
        workload="nbody",
        model="omp",
        strategy="Rm",
        seed=settings.spec_seed("figs36"),
        anomaly_prob=0.3,
    )
    return collect_traces(spec, reps=20, min_degradation=0.03, max_batches=3)


def test_fig3_trace_sample(benchmark, settings, publish):
    coll = once(benchmark, lambda: _collection(settings))
    text = coll.worst_trace.to_osnoise_text(limit=15)
    publish("fig3", "Figure 3: sample OSnoise trace records\n" + text)

    lines = text.splitlines()
    assert lines[0].startswith("CPU")
    assert len(lines) == 16
    # the trace mixes event classes like the paper's figure
    body = "\n".join(lines[1:])
    assert "irq_noise" in body
    assert "local_timer:236" in body


def test_fig4_refinement(benchmark, settings, publish):
    coll = _collection(settings)
    refined = once(benchmark, lambda: refine_worst_case(coll.worst_trace, coll.profile))
    worst = coll.worst_trace
    text = (
        "Figure 4: delta refinement of the worst-case trace\n"
        f"  worst-case events : {worst.n_events}\n"
        f"  delta events      : {refined.n_events}\n"
        f"  noise CPU time    : {worst.total_noise_time() * 1e3:.2f}ms -> "
        f"{refined.total_noise_time() * 1e3:.2f}ms"
    )
    publish("fig4", text)

    # refinement removes the inherent hum: most events cancel outright,
    # the rest keep only their above-average residual (sub-µs residuals
    # are then dropped by the config generator's min_duration filter).
    # The anomaly's busy time survives, so total noise time shrinks only
    # by the hum's share — the *event-count* collapse is the signature.
    assert refined.n_events < worst.n_events * 0.5
    assert 0 < refined.total_noise_time() < worst.total_noise_time()
    # the tick hum specifically is almost entirely cancelled
    hum_before = worst.events_of_source("local_timer:236").sum()
    hum_after = refined.events_of_source("local_timer:236").sum()
    assert hum_after < hum_before * 0.5


def test_fig5_config_structure(benchmark, settings, publish):
    coll = _collection(settings)
    config = once(benchmark, lambda: generate_config(coll.worst_trace, coll.profile))
    payload = json.loads(config.to_json())
    preview = config.to_json(indent=2)
    publish("fig5", "Figure 5: noise configuration structure\n" + preview[:1500])

    assert "threads" in payload and payload["threads"]
    block = payload["threads"][0]
    assert set(block) == {"cpu", "noise_events"}
    event = block["noise_events"][0]
    for field in ("start_time", "duration", "policy", "event_type"):
        assert field in event
    policies = {
        e["policy"] for b in payload["threads"] for e in b["noise_events"]
    }
    assert policies <= {"SCHED_FIFO", "SCHED_OTHER"}


def test_fig6_injection_overview(benchmark, settings, publish):
    from repro.harness.experiment import run_experiment

    coll = _collection(settings)
    config = generate_config(coll.worst_trace, coll.profile)
    spec = ExperimentSpec(
        platform="intel-9700kf",
        workload="nbody",
        model="omp",
        strategy="Rm",
        seed=settings.spec_seed("fig6-inj"),
        reps=8,
    )
    noise = TraceReplaySource(config)
    injected = once(benchmark, lambda: run_experiment(spec, noise=noise))
    text = (
        "Figure 6: injector processing overview\n"
        f"  injector processes : {config.n_cpus}\n"
        f"  events replayed    : {config.n_events}\n"
        f"  injected busy time : {config.total_busy_time() * 1e3:.1f}ms\n"
        f"  baseline mean      : {coll.mean_exec_time:.4f}s\n"
        f"  injected mean      : {injected.mean:.4f}s"
    )
    publish("fig6", text)

    assert injected.mean > coll.mean_exec_time
