#!/usr/bin/env python3
"""Worst-case replay with on-disk artefacts (the operational workflow).

Demonstrates the file-based flow a performance team would use:

1. collect traces, save the worst case and the noise config as JSON;
2. days later (or on another checkout) load the config back;
3. replay it under a candidate mitigation and compare.

Run:  python examples/worst_case_replay.py
"""

import tempfile
from pathlib import Path

from repro import ExperimentSpec, NoiseConfig, collect_traces, generate_config, run_experiment
from repro.core.accuracy import replication_accuracy
from repro.core.pipeline import INJECT_SEED_OFFSET
from repro.noise import TraceReplaySource

workdir = Path(tempfile.mkdtemp(prefix="repro-replay-"))
spec = ExperimentSpec(
    platform="intel-9700kf",
    workload="babelstream",
    model="omp",
    strategy="Rm",
    seed=3,
    anomaly_prob=0.25,
)

# ---------------------------------------------------------------- step 1
print("step 1: trace collection")
coll = collect_traces(spec, reps=25, min_degradation=0.03, max_batches=4)
print(
    f"  {len(coll.exec_times)} runs, worst case {coll.worst_exec_time:.4f}s "
    f"(+{coll.worst_case_degradation() * 100:.1f}%)"
)

trace_path = workdir / "worst_case_trace.json"
trace_path.write_text(coll.worst_trace.to_json())
print(f"  worst-case trace -> {trace_path} ({coll.worst_trace.n_events} events)")

config = generate_config(coll.worst_trace, coll.profile, meta={"origin": spec.label()})
config_path = workdir / "noise_config.json"
config.save(config_path)
print(f"  noise config     -> {config_path} ({config.n_events} events)")

# ---------------------------------------------------------------- step 2
print("\nstep 2: reload the configuration (fresh process, another day...)")
loaded = NoiseConfig.load(config_path)
assert loaded.to_json() == config.to_json()
print(f"  loaded {loaded.n_events} events, {loaded.total_busy_time() * 1e3:.1f}ms busy, "
      f"origin: {loaded.meta['origin']}")

# ---------------------------------------------------------------- step 3
print("\nstep 3: replay against the original and a mitigated configuration")
for strategy in ("Rm", "RmHK"):
    s = spec.with_(strategy=strategy, reps=10, anomaly_prob=0.0, seed=91)
    baseline = run_experiment(s)
    injected = run_experiment(
        s.with_(seed=spec.seed + INJECT_SEED_OFFSET), noise=TraceReplaySource(loaded)
    )
    delta = (injected.mean / baseline.mean - 1.0) * 100.0
    line = (
        f"  {strategy:5s} baseline {baseline.mean:.4f}s -> injected {injected.mean:.4f}s "
        f"({delta:+.1f}%)"
    )
    if strategy == "Rm":
        acc = replication_accuracy(injected.mean, coll.worst_exec_time)
        line += f"   [replication accuracy {acc * 100:.2f}%]"
    print(line)

print(f"\nartefacts kept in {workdir}")
