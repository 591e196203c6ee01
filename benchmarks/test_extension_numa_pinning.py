"""Extension study — thread pinning on a multi-NUMA HPC node.

The paper's §5.1/§6: on its single-socket desktops TP ≈ Rm, but it
hypothesises (citing prior HPC work) that "on large-scale systems with
several CPU clusters thread pinning can be highly beneficial" because
cross-NUMA migration is expensive.  This study runs the same
injected-noise comparison on a simulated dual-socket 64-core node
(with per-hop latencies *and* persistent remote-memory slowdowns after
cross-node migration) and contrasts it with the Intel desktop result.

Finding (recorded in EXPERIMENTS.md): under *worst-case replay*, the
escape-vs-wait trade keeps favouring roaming even with NUMA penalties —
a starved thread running at 0.3x beats one blocked at 0x for the
multi-millisecond noise events worst cases are made of.  The prior
work's pinning advantage concerns steady-state balancer churn, which a
starvation-only migration model does not produce; this bench pins down
that boundary of the reproduction.
"""

from repro.core.collection import collect_traces
from repro.core.config import generate_config
from repro.core.pipeline import INJECT_SEED_OFFSET
from repro.harness.experiment import ExperimentSpec
from repro.harness.report import TableBuilder
from repro.noise import TraceReplaySource

from conftest import once


def _tp_vs_rm(settings, platform):
    """(rm_delta, tp_delta, rm_migrations) under injected noise."""
    spec = ExperimentSpec(
        platform=platform,
        workload="nbody",
        model="omp",
        strategy="Rm",
        seed=settings.spec_seed("numa-study", platform),
        anomaly_prob=0.5,
    )
    coll = collect_traces(spec, reps=20, min_degradation=0.05, max_batches=3)
    config = generate_config(coll.worst_trace, coll.profile)
    deltas = {}
    for strategy in ("Rm", "TP"):
        s = spec.with_(strategy=strategy, anomaly_prob=0.0, seed=spec.seed + 17)
        base = settings.cache.get_or_run(s)
        inj = settings.cache.get_or_run(
            s.with_(seed=s.seed + INJECT_SEED_OFFSET), noise=TraceReplaySource(config)
        )
        deltas[strategy] = (inj.mean / base.mean - 1.0) * 100.0
    return deltas


def test_extension_numa_pinning(benchmark, settings, publish):
    def run():
        return {
            "intel-9700kf": _tp_vs_rm(settings, "intel-9700kf"),
            "hpc-2s64": _tp_vs_rm(settings, "hpc-2s64"),
        }

    results = once(benchmark, run)

    tb = TableBuilder(["platform", "Rm delta", "TP delta", "TP - Rm"])
    for plat, deltas in results.items():
        tb.add_row(
            plat,
            f"{deltas['Rm']:+.1f}%",
            f"{deltas['TP']:+.1f}%",
            f"{deltas['TP'] - deltas['Rm']:+.1f}pp",
        )
    publish(
        "extension_numa_pinning",
        "Extension: thread pinning vs roaming under injected noise\n" + tb.render(),
    )

    # Both platforms show a real injected hit, and TP never beats Rm
    # under worst-case replay in this substrate (the desktop result the
    # paper reports; the HPC hypothesis is the documented open gap).
    for plat, deltas in results.items():
        assert deltas["Rm"] > 5.0, f"{plat}: injection too weak to compare"
        assert deltas["TP"] >= deltas["Rm"] - 2.0
