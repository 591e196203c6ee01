"""Stage 1: system trace collection (paper §4.1).

Runs the workload many times with the OSnoise-style tracer enabled,
streaming each run's trace into the average-noise profile and keeping
only the worst-case trace resident (a thousand desktop traces would not
fit in memory — neither here nor on the paper's machines, which is why
the real tool also processes trace files one at a time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.profile import NoiseProfile, ProfileAccumulator
from repro.core.trace import Trace
from repro.harness.experiment import ExperimentSpec, run_experiment
from repro.sim.machine import RunResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.executor import Executor
    from repro.harness.faults import FaultPolicy

__all__ = ["CollectionResult", "collect_traces"]


@dataclass
class CollectionResult:
    """Everything stage 2 needs, distilled from N traced runs."""

    spec: ExperimentSpec
    profile: NoiseProfile
    worst_trace: Trace
    exec_times: np.ndarray
    anomalies: list[Optional[str]]

    @property
    def worst_exec_time(self) -> float:
        """Execution time of the worst-case run (the anomaly to replay)."""
        return self.worst_trace.exec_time

    @property
    def mean_exec_time(self) -> float:
        """Average execution time over the collection runs."""
        return float(self.exec_times.mean())

    @property
    def clean_mean_exec_time(self) -> float:
        """Average over runs without a natural anomaly — the honest
        baseline when collection ran an accelerated anomaly lottery."""
        clean = [t for t, a in zip(self.exec_times, self.anomalies) if not a]
        if not clean:
            return self.mean_exec_time
        return float(np.mean(clean))

    def worst_case_degradation(self) -> float:
        """Fractional slowdown of the worst case versus the mean."""
        return self.worst_exec_time / self.mean_exec_time - 1.0


def collect_traces(
    spec: ExperimentSpec,
    reps: Optional[int] = None,
    min_degradation: float = 0.10,
    max_batches: int = 5,
    profile_excludes_anomalies: bool = False,
    executor: Optional["Executor"] = None,
    policy: Optional["FaultPolicy"] = None,
) -> CollectionResult:
    """Run the collection campaign for one workload configuration.

    Tracing is forced on regardless of ``spec.tracing``; repetitions
    default to the spec's baseline count (paper: 1000).

    The paper selected worst-case traces "because they present
    significant outliers"; with fewer runs than the paper's 1000 a
    batch may simply not contain one, so collection keeps adding
    batches (up to ``max_batches``) until the worst case degrades the
    mean by at least ``min_degradation`` — set it to 0 to disable the
    hunt and take whatever the first batch produced.

    ``executor`` selects the execution backend (default: ``REPRO_JOBS``).
    Under a parallel backend the trace consumer receives each batch's
    runs in order once their chunks complete; the streamed profile and
    worst-case selection are order-insensitive either way.

    ``policy`` contains per-rep failures during collection
    (:class:`~repro.harness.faults.FaultPolicy`); skipped reps simply
    contribute nothing to the profile or the worst-case hunt.

    ``profile_excludes_anomalies`` keeps anomalous runs out of the
    average-noise profile.  Use it when collecting under an
    *accelerated* anomaly lottery: at natural rates (the paper's
    setting) anomalies are so rare they barely touch the average, but
    an accelerated hunt would otherwise fold the anomaly itself into
    the "inherent noise" that refinement subtracts.
    """
    spec = spec.with_(tracing=True, reps=reps if reps is not None else spec.reps)
    # Each trace is folded once.  With ``profile_excludes_anomalies``
    # anomalous runs go to their own accumulator, which is the profile
    # only when no run was clean (it then holds every run, in order).
    acc = ProfileAccumulator()
    acc_anomalous = ProfileAccumulator() if profile_excludes_anomalies else acc
    state: dict = {"worst": None}

    def consume(i: int, result: RunResult) -> None:
        trace = result.trace
        assert trace is not None, "tracing was forced on"
        (acc_anomalous if result.anomaly else acc).add(trace)
        worst = state["worst"]
        if worst is None or trace.exec_time > worst.exec_time:
            trace.meta.update(run=i, anomaly=result.anomaly)
            state["worst"] = trace

    all_times: list[np.ndarray] = []
    all_anomalies: list[Optional[str]] = []
    for batch in range(max_batches):
        batch_spec = spec.with_(seed=spec.seed + batch * 7919)
        rs = run_experiment(batch_spec, on_run=consume, executor=executor, policy=policy)
        if rs.failures:
            # Skipped reps carry NaN — drop them (and their anomaly
            # slots) so the worst-case hunt and profile stay finite.
            keep = ~np.isnan(rs.times)
            all_times.append(rs.times[keep])
            all_anomalies.extend(a for a, k in zip(rs.anomalies, keep) if k)
        else:
            all_times.append(rs.times)
            all_anomalies.extend(rs.anomalies)
        times = np.concatenate(all_times)
        worst = state["worst"]
        if worst is not None and worst.exec_time / times.mean() - 1.0 >= min_degradation:
            break
    return CollectionResult(
        spec=spec,
        profile=(acc if acc.n_runs else acc_anomalous).build(),
        worst_trace=state["worst"],
        exec_times=np.concatenate(all_times),
        anomalies=all_anomalies,
    )
