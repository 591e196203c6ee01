"""End-to-end noise-injection pipeline (paper §4).

Wires the three stages together:

1. :func:`~repro.core.collection.collect_traces` — trace N runs;
2. :func:`~repro.core.config.generate_config` — refine the worst case
   and build the per-CPU configuration;
3. :func:`~repro.harness.experiment.run_experiment` with a
   :class:`~repro.noise.base.NoiseStack` replaying it (optionally
   composed with further registered sources via ``extra_noise``).

A configuration generated from one workload configuration can be (and
in the paper's Tables 3–5 *is*) replayed against other configurations:
use :meth:`NoiseInjectionPipeline.build_config` once, then
:meth:`NoiseInjectionPipeline.inject` with any spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro import telemetry as _telemetry
from repro.core.accuracy import replication_accuracy
from repro.core.collection import CollectionResult, collect_traces
from repro.core.config import NoiseConfig, generate_config
from repro.core.merge import MergeStrategy
from repro.harness.experiment import ExperimentSpec, ResultSet, run_experiment
from repro.noise.base import NoiseSource, NoiseStack
from repro.noise.sources import TraceReplaySource

if TYPE_CHECKING:  # pragma: no cover
    from typing import Sequence

    from repro.harness.executor import Executor
    from repro.harness.faults import FaultPolicy

__all__ = ["PipelineResult", "NoiseInjectionPipeline", "INJECT_SEED_OFFSET"]


@dataclass
class PipelineResult:
    """Outcome of a full collect → configure → inject cycle."""

    collection: CollectionResult
    config: NoiseConfig
    injected: ResultSet

    @property
    def baseline_mean(self) -> float:
        """Mean execution time of the (traced) anomaly-free baseline
        runs (collection may have run an accelerated anomaly hunt)."""
        return self.collection.clean_mean_exec_time

    @property
    def injected_mean(self) -> float:
        """Mean execution time under injection."""
        return self.injected.mean

    @property
    def degradation_pct(self) -> float:
        """Paper's Δ%: injected mean versus baseline mean."""
        return (self.injected_mean / self.baseline_mean - 1.0) * 100.0

    @property
    def accuracy(self) -> float:
        """Replication accuracy versus the recorded anomaly (Table 7)."""
        return replication_accuracy(self.injected_mean, self.collection.worst_exec_time)

    def summary(self) -> str:
        """One-paragraph human-readable result."""
        c = self.collection
        return (
            f"{c.spec.label()}: baseline {self.baseline_mean:.4f}s "
            f"(worst case {c.worst_exec_time:.4f}s, "
            f"+{c.worst_case_degradation() * 100:.1f}%), "
            f"injected {self.injected_mean:.4f}s "
            f"({self.degradation_pct:+.1f}% vs baseline, "
            f"replication accuracy {self.accuracy * 100:.2f}%), "
            f"config: {self.config.n_events} events on {self.config.n_cpus} CPUs, "
            f"{self.config.total_busy_time() * 1e3:.1f}ms busy"
        )


#: added to a spec's seed for its injected runs (:meth:`NoiseInjectionPipeline.inject`
#: and every campaign cell that replays a config), so they draw a seed
#: stream apart from the baseline's and see fresh inherent noise
INJECT_SEED_OFFSET = 1_000_003


class NoiseInjectionPipeline:
    """Reusable pipeline bound to one collection configuration."""

    def __init__(
        self,
        spec: ExperimentSpec,
        merge: MergeStrategy = MergeStrategy.IMPROVED,
        collect_reps: Optional[int] = None,
        inject_reps: Optional[int] = None,
        collect_anomaly_prob: Optional[float] = 0.15,
        executor: Optional["Executor"] = None,
        extra_noise: "Sequence[NoiseSource]" = (),
        fault_policy: Optional["FaultPolicy"] = None,
    ):
        """``collect_anomaly_prob`` accelerates the worst-case hunt
        during collection only (the paper brute-forced rare events over
        1000 runs; scaled-down collections compress that search), while
        baselines and injected runs keep the spec's natural noise.
        Pass ``None`` to collect at the spec's own rate.

        ``extra_noise`` composes additional registered noise sources
        (I/O interference, memory hogs, synthetic background, ...) on
        top of the generated trace-replay config during the injection
        stage — the bottleneck-localisation workflow of composing
        heterogeneous noise around a replayed worst case.

        ``executor`` selects the execution backend for both the
        collection and injection stages (default: ``REPRO_JOBS``);
        results are bit-identical across backends.

        ``fault_policy`` contains per-rep failures in both stages
        (:class:`~repro.harness.faults.FaultPolicy`): timeouts, retries
        with deterministic backoff, and ``skip`` partial results."""
        self.spec = spec
        self.merge = merge
        self.collect_reps = collect_reps
        self.inject_reps = inject_reps
        self.collect_anomaly_prob = collect_anomaly_prob
        self.executor = executor
        self.fault_policy = fault_policy
        self.extra_noise: tuple[NoiseSource, ...] = tuple(extra_noise)
        self.collection: Optional[CollectionResult] = None
        self.config: Optional[NoiseConfig] = None

    # ------------------------------------------------------------------
    def build_config(self) -> NoiseConfig:
        """Stages 1–2: collect traces and generate the configuration."""
        cspec = self.spec
        accelerated = self.collect_anomaly_prob is not None
        if accelerated:
            cspec = cspec.with_(anomaly_prob=self.collect_anomaly_prob)
        with _telemetry.span("collect", spec=cspec.label()):
            self.collection = collect_traces(
                cspec,
                reps=self.collect_reps,
                profile_excludes_anomalies=accelerated,
                executor=self.executor,
                policy=self.fault_policy,
            )
        with _telemetry.span("configure", spec=self.spec.label(), merge=self.merge.value):
            self.config = generate_config(
                self.collection.worst_trace,
                self.collection.profile,
                merge=self.merge,
                meta={"collected_from": self.spec.label()},
            )
        return self.config

    def inject(
        self,
        spec: Optional[ExperimentSpec] = None,
        config: Optional[NoiseConfig] = None,
    ) -> ResultSet:
        """Stage 3: replay a configuration against a workload spec.

        Defaults to this pipeline's own spec and config; pass another
        spec to evaluate a different mitigation strategy or programming
        model under the same noise (the cross-configuration studies of
        Tables 3–5).
        """
        spec = spec if spec is not None else self.spec
        config = config if config is not None else self.config
        if config is None:
            raise RuntimeError("build_config() must run before inject()")
        if self.inject_reps is not None:
            spec = spec.with_(reps=self.inject_reps)
        # Different seed stream than collection, so injection runs see
        # fresh inherent noise (the paper's uncontrollable residual).
        spec = spec.with_(seed=spec.seed + INJECT_SEED_OFFSET)
        stack = NoiseStack([TraceReplaySource(config), *self.extra_noise])
        with _telemetry.span("inject", spec=spec.label()):
            return run_experiment(
                spec, noise=stack, executor=self.executor, policy=self.fault_policy
            )

    def run(self) -> PipelineResult:
        """Full cycle against the pipeline's own spec."""
        with _telemetry.span("pipeline", spec=self.spec.label()):
            self.build_config()
            injected = self.inject()
        assert self.collection is not None and self.config is not None
        return PipelineResult(collection=self.collection, config=self.config, injected=injected)
