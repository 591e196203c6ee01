"""Extension study — HPAS-style synthetic noise versus trace replay.

Quantifies the paper's §2 argument against synthetic injectors: given
the *same total CPU-busy budget*, a uniform synthetic hog neither
reproduces the recorded anomaly's magnitude nor its structure, while
the delta-refined replay tracks it closely.
"""

from repro.core.accuracy import replication_accuracy
from repro.core.collection import collect_traces
from repro.core.config import generate_config
from repro.core.pipeline import INJECT_SEED_OFFSET
from repro.harness.experiment import ExperimentSpec
from repro.harness.report import TableBuilder
from repro.noise import HpasCpuOccupySource, TraceReplaySource

from conftest import once


def test_extension_synthetic_vs_replay(benchmark, settings, publish):
    spec = ExperimentSpec(
        platform="intel-9700kf",
        workload="minife",
        model="omp",
        strategy="Rm",
        seed=settings.spec_seed("synth-vs-replay"),
        anomaly_prob=0.3,
    )

    def run():
        coll = collect_traces(
            spec, reps=30, min_degradation=0.08, max_batches=3,
            profile_excludes_anomalies=True,
        )
        replay_cfg = generate_config(coll.worst_trace, coll.profile)
        budget = replay_cfg.total_busy_time()
        synthetic = HpasCpuOccupySource(start=0.05, duration=budget / 2.0, cpus=(0, 1))
        out = {"worst": coll.worst_exec_time, "budget": budget}
        for name, noise in (("replay", TraceReplaySource(replay_cfg)), ("synthetic", synthetic)):
            inj = settings.cache.get_or_run(
                spec.with_(reps=0, anomaly_prob=None, seed=spec.seed + INJECT_SEED_OFFSET),
                noise=noise,
            )
            out[name] = inj.mean
        return out

    results = once(benchmark, run)

    replay_acc = replication_accuracy(results["replay"], results["worst"])
    synth_acc = replication_accuracy(results["synthetic"], results["worst"])
    tb = TableBuilder(["injector", "injected mean (s)", "error vs anomaly"])
    tb.add_row("trace replay", f"{results['replay']:.4f}", f"{replay_acc * 100:.2f}%")
    tb.add_row("HPAS-style synthetic", f"{results['synthetic']:.4f}", f"{synth_acc * 100:.2f}%")
    publish(
        "extension_synthetic_vs_replay",
        "Extension: synthetic vs trace-replay injection "
        f"(equal {results['budget'] * 1e3:.0f}ms CPU budget, anomaly "
        f"{results['worst']:.4f}s)\n" + tb.render(),
    )

    # the replay tracks the recorded anomaly better than the shape-less
    # synthetic hog with the same budget
    assert replay_acc < synth_acc
    assert replay_acc < 0.15
