"""Experiment specification and runner.

An :class:`ExperimentSpec` is everything needed to reproduce one cell
of the paper's tables: platform, workload, programming model,
mitigation strategy, SMT use, repetition count, and a seed.  The same
spec with ``noise`` set (a :class:`~repro.noise.base.NoiseStack` —
trace replay, I/O interference, memory hogs, synthetic background, or
any composition of them) becomes an injection experiment (stage 3 of
the pipeline).  A paper noise configuration enters as
``TraceReplaySource(config)``, like every other kind.

Repetition counts default to the environment variables
``REPRO_BASELINE_REPS`` / ``REPRO_INJECT_REPS`` so the full-paper
counts (1000 / 200) can be restored without code changes.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from repro.harness.adaptive import AdaptivePolicy
from repro.harness.stats import Summary, summarize
from repro.mitigation.strategies import get_strategy
from repro.noise.base import NoiseStack
from repro.runtimes import get_runtime
from repro.runtimes.base import Placement
from repro.sim.machine import Machine, RunResult
from repro.sim.noise import runlevel3 as _runlevel3
from repro.sim.platform import PlatformSpec, get_platform
from repro.workloads.base import Workload, get_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.executor import Executor
    from repro.harness.faults import FailureRecord, FaultPolicy
    from repro.noise.base import NoiseSource

    NoiseLike = Union[NoiseStack, NoiseSource, Sequence[NoiseSource], None]

__all__ = [
    "ExperimentSpec",
    "ResultSet",
    "ResolvedContext",
    "resolve_context",
    "context_key",
    "run_experiment",
    "run_resolved",
    "default_baseline_reps",
    "default_inject_reps",
    "env_int",
]


def env_int(name: str, default: int) -> int:
    """Integer environment variable with a validating error message.

    Unset or blank values yield ``default``; anything else must parse
    as an integer, or the error names the offending variable and value
    instead of ``int()``'s opaque ``ValueError``.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw.strip())
    except ValueError:
        raise ValueError(
            f"environment variable {name} must be an integer, got {raw!r}"
        ) from None


def default_baseline_reps() -> int:
    """Baseline repetitions (paper: 1000; default here: 60)."""
    return env_int("REPRO_BASELINE_REPS", 60)


def default_inject_reps() -> int:
    """Injection repetitions (paper: 200; default here: 30)."""
    return env_int("REPRO_INJECT_REPS", 30)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration (a table cell)."""

    platform: str
    workload: str
    model: str = "omp"
    strategy: str = "Rm"
    use_smt: bool = True
    reps: int = 0                      # 0 → environment default
    seed: int = 2025
    tracing: bool = True
    runlevel3: bool = False
    rt_throttle: bool = True
    anomaly_prob: Optional[float] = None
    #: override the thread count (default: one per CPU in the strategy's
    #: mask); used by the Fig.-2 thread-scaling sweep
    n_threads: Optional[int] = None
    workload_params: dict = field(default_factory=dict)
    #: noise driven during every run (injection experiment when set);
    #: any combination of registered sources via a NoiseStack
    noise: Optional[NoiseStack] = None
    #: opt-in CI-driven early stopping (None = classic fixed reps);
    #: accepts an AdaptivePolicy or its dict serialization
    adaptive: Optional[AdaptivePolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise", NoiseStack.coerce(self.noise))
        object.__setattr__(self, "adaptive", AdaptivePolicy.coerce(self.adaptive))
        if self.workload_params is None:
            object.__setattr__(self, "workload_params", {})

    def label(self) -> str:
        """Human-readable configuration label (paper row style)."""
        smt = "-SMT" if self.use_smt and "amd" in self.platform else ""
        return f"{self.strategy}-{self.model.upper()}{smt}/{self.workload}@{self.platform}"

    def resolved_reps(self, injecting: bool = False) -> int:
        """Repetition count with environment defaults applied."""
        if self.reps > 0:
            return self.reps
        return default_inject_reps() if injecting else default_baseline_reps()

    def with_(self, **changes) -> "ExperimentSpec":
        """Functional update."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(changes) - set(current)
        if unknown:
            raise TypeError(f"unknown ExperimentSpec field(s): {sorted(unknown)}")
        current.update(changes)
        return ExperimentSpec(**current)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (exact round-trip).

        ``noise`` and ``adaptive`` serialise through their own
        ``to_dict`` forms; everything else is scalars and a plain
        params dict.  This is the wire format of the campaign-service
        job queue, so :meth:`from_dict` must reconstruct a spec whose
        cache key and results are identical to the original's.
        """
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("noise", "adaptive") and value is not None:
                value = value.to_dict()
            elif f.name == "workload_params":
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        noise = data.get("noise")
        if isinstance(noise, dict):
            data["noise"] = NoiseStack.from_dict(noise)
        return cls(**data)


@dataclass
class ResultSet:
    """Execution times and metadata of one experiment.

    Under a ``skip`` :class:`~repro.harness.faults.FaultPolicy` an
    experiment may complete *partially*: terminally failed reps carry
    NaN in ``times`` and a structured
    :class:`~repro.harness.faults.FailureRecord` in ``failures``.  The
    statistics properties then aggregate over the completed reps only;
    with no failures they are bit-identical to the pre-fault-tolerance
    behaviour.
    """

    spec: ExperimentSpec
    times: np.ndarray
    anomalies: list[Optional[str]]
    injected: bool = False
    #: terminal per-rep failures contained by a ``skip`` policy
    failures: list["FailureRecord"] = field(default_factory=list)
    #: early-stopping metadata when the spec carried an
    #: :class:`~repro.harness.adaptive.AdaptivePolicy`: ``reps_run``,
    #: ``cap``, ``stopped_early``, ``rel_halfwidth``, ``policy``.
    #: ``None`` for classic fixed-rep experiments (``times`` then has
    #: exactly ``spec.reps`` entries; adaptive sets may have fewer).
    adaptive: Optional[dict] = None

    @property
    def ok_times(self) -> np.ndarray:
        """Execution times of the reps that completed."""
        if not self.failures:
            return self.times
        return self.times[~np.isnan(self.times)]

    @property
    def summary(self) -> Summary:
        """Descriptive statistics of the (completed) execution times."""
        return summarize(self.ok_times)

    @property
    def mean(self) -> float:
        """Mean execution time in seconds."""
        # The no-failure fast path preserves exact float behaviour
        # (cache envelopes and golden comparisons depend on it).
        if not self.failures:
            return float(self.times.mean())
        return float(self.ok_times.mean())

    @property
    def sd(self) -> float:
        """Sample standard deviation in seconds."""
        times = self.times if not self.failures else self.ok_times
        return float(times.std(ddof=1)) if len(times) > 1 else 0.0

    def anomaly_count(self) -> int:
        """Runs in which a natural anomaly fired."""
        return sum(1 for a in self.anomalies if a)

    def failure_count(self) -> int:
        """Reps that failed terminally (skipped under the policy)."""
        return len(self.failures)


# ----------------------------------------------------------------------
@dataclass
class ResolvedContext:
    """Everything per-rep execution needs, resolved once from a spec.

    Platform presets, workloads, placements, and the expected duration
    are pure functions of the spec, so they can be built once and
    reused across every repetition — and across *experiments*: the
    executors key worker-local context caches by :func:`context_key`,
    which deliberately excludes ``seed`` and ``reps``, so a campaign
    sweeping seeds over one configuration (or an adaptive experiment
    dispatching batch after batch) resolves the world exactly once per
    worker process.

    The runtime is *not* cached: :class:`~repro.runtimes.base.TeamRuntime`
    instances are single-use (one machine each), so ``model`` stays a
    name and :func:`run_resolved` instantiates a fresh runtime per rep,
    so every rep draws from its RNG in the same order on a clean
    machine.
    """

    platform: PlatformSpec
    workload: Workload
    placement: Placement
    model: str
    tracing: bool
    #: the spec-level flag; per-rep execution still turns throttling
    #: off when the attached noise stack requires it
    rt_throttle: bool
    #: precomputed ``workload.estimate_duration(platform, n_threads)``
    expected: float
    key: str


def context_key(spec: ExperimentSpec) -> str:
    """Cache key of a spec's resolved context.

    Covers every field :func:`resolve_context` reads — and *only*
    those: ``seed``, ``reps``, ``noise``, and ``adaptive`` do not
    shape the platform/workload/placement, so specs differing only in
    them share one resolved context.
    """
    return repr((
        spec.platform,
        spec.workload,
        spec.model,
        spec.strategy,
        spec.use_smt,
        spec.tracing,
        spec.runlevel3,
        spec.rt_throttle,
        spec.anomaly_prob,
        spec.n_threads,
        sorted(spec.workload_params.items()),
    ))


def resolve_context(spec: ExperimentSpec) -> ResolvedContext:
    """Build the reusable per-spec execution context.

    Resolves names to the concrete platform (with the spec's
    runlevel-3 and anomaly overrides), workload and placement.
    """
    platform = get_platform(spec.platform)
    noise_env = platform.noise
    if spec.runlevel3:
        noise_env = _runlevel3(noise_env)
    if spec.anomaly_prob is not None:
        noise_env = replace(
            noise_env, anomalies=replace(noise_env.anomalies, prob=spec.anomaly_prob)
        )
    platform = platform.with_noise(noise_env)
    workload = get_workload(spec.workload, platform, **spec.workload_params)
    placement = get_strategy(spec.strategy).placement(platform, use_smt=spec.use_smt)
    if spec.n_threads is not None:
        if spec.n_threads > len(placement.cpus):
            raise ValueError(
                f"n_threads={spec.n_threads} exceeds the strategy's "
                f"{len(placement.cpus)}-CPU mask"
            )
        placement = replace(placement, n_threads=spec.n_threads)
    return ResolvedContext(
        platform=platform,
        workload=workload,
        placement=placement,
        model=spec.model,
        tracing=spec.tracing,
        rt_throttle=spec.rt_throttle,
        expected=workload.estimate_duration(platform, placement.n_threads),
        key=context_key(spec),
    )


def run_resolved(
    context: ResolvedContext,
    rng: np.random.Generator,
    noise: Optional[NoiseStack] = None,
    *,
    rt_throttle: Optional[bool] = None,
    meta: Optional[dict] = None,
    keep_trace: bool = True,
) -> RunResult:
    """Execute one run on a prebuilt :class:`ResolvedContext`.

    Every rep of every backend runs here: a fresh machine and runtime,
    then the runtime launch and noise attachment in a fixed order, so
    results are bit-identical — platform/workload/placement and the
    expected duration come from the context instead of being resolved
    again.  ``noise`` must already be a coerced stack (or ``None``).
    ``keep_trace=False`` skips assembling the trace (see
    :meth:`~repro.sim.machine.Machine.run`).
    """
    machine = Machine(
        context.platform,
        rng,
        tracing=context.tracing,
        rt_throttle=context.rt_throttle if rt_throttle is None else rt_throttle,
    )
    runtime = get_runtime(context.model)

    def start(m: Machine) -> None:
        runtime.launch(
            m,
            context.workload.regions(context.platform, context.placement.n_threads),
            context.placement,
        )
        if noise is not None and noise:
            noise.attach(m, rng).start(context.expected)

    return machine.run(
        start, expected_duration=context.expected, meta=meta, keep_trace=keep_trace
    )


def run_experiment(
    spec: ExperimentSpec,
    noise: "NoiseLike" = None,
    on_run: Optional[Callable[[int, RunResult], None]] = None,
    executor: Optional["Executor"] = None,
    policy: Optional["FaultPolicy"] = None,
) -> ResultSet:
    """Run a full experiment (``reps`` independent machines).

    Parameters
    ----------
    noise:
        When given (any registered :class:`~repro.noise.base.NoiseSource`,
        a :class:`~repro.noise.base.NoiseStack`, or a sequence of
        sources), every run drives the composed sources alongside the
        workload (with RT throttling disabled when any source requires
        it, as in the paper).  Defaults to ``spec.noise``.
    on_run:
        Optional consumer called per run — e.g. the trace collector.
        A rep's trace is assembled only when ``on_run`` is given, and
        is not retained by the ResultSet (a thousand desktop traces
        would be gigabytes); consume it here.  Always invoked
        in rep order; under a parallel executor delivery is post-hoc
        (after the rep's chunk completes) rather than live.
    executor:
        Execution backend; defaults to
        :func:`~repro.harness.executor.get_executor` (``REPRO_JOBS``).
        ``times[i]`` / ``anomalies[i]`` are bit-identical across
        backends and worker counts — reps are seeded by index.
    policy:
        Fault containment (:class:`~repro.harness.faults.FaultPolicy`):
        per-rep timeouts, retries with deterministic backoff, and
        ``skip`` semantics producing a partial ResultSet with attached
        :class:`~repro.harness.faults.FailureRecord` entries instead of
        raising mid-experiment.  Default: fail fast (pre-existing
        behaviour).  A rep that succeeds after retries is bit-identical
        to a clean first run — retries re-seed from the original
        per-rep spawn key.
    """
    from repro import telemetry as _telemetry
    from repro.harness.executor import get_executor

    if executor is None:
        executor = get_executor()
    stack = NoiseStack.coerce(noise)
    if stack is None:
        stack = spec.noise
    injecting = stack is not None and bool(stack)
    # One rep loop for both modes: a fixed run is one batch of
    # ``reps`` with no stop rule; an adaptive run dispatches the
    # policy's fixed batch schedule up to its cap and evaluates the
    # stop rule — a bootstrap CI drawn from an RNG keyed by
    # ``(seed, n)`` — after each batch.  Rep ``i`` is bit-identical
    # either way, and the adaptive rep count is the same at any worker
    # count.
    adaptive = spec.adaptive
    reps = spec.resolved_reps(injecting)
    if adaptive is None:
        cap, edges, mode = reps, [reps], {}
    else:
        cap = adaptive.resolve_cap(reps)
        edges, mode = adaptive.batch_edges(cap), {"adaptive": True}
    times = np.empty(cap)
    anomalies: list[Optional[str]] = [None] * cap
    failures: list["FailureRecord"] = []
    n = 0
    stopped_early = False
    rel_hw = float("nan")
    # One span per experiment (and per adaptive batch) — far off the
    # per-rep hot path, so no enabled() guard is needed around the
    # attribute dict.
    with _telemetry.span(
        "experiment", spec=spec.label(), reps=cap, injected=injecting, **mode
    ):
        for edge in edges:
            batch = range(n, edge)
            with (
                nullcontext()
                if adaptive is None
                else _telemetry.span("batch", spec=spec.label(), start=n, size=len(batch))
            ):
                for rep in executor.run_rep_range(
                    spec, stack, batch, need_runs=on_run is not None, policy=policy
                ):
                    times[rep.index] = rep.exec_time
                    anomalies[rep.index] = rep.anomaly
                    if rep.error is not None:
                        failures.append(rep.error)
                    elif on_run is not None:
                        on_run(rep.index, rep.run)
            n = edge
            if adaptive is None:
                break
            done = times[:n]
            stop, rel_hw = adaptive.should_stop(done[~np.isnan(done)], spec.seed, n)
            if stop:
                stopped_early = n < cap
                break
    summary = None
    if adaptive is not None:
        group = _telemetry.get_group("adaptive")
        group.inc("cells")
        group.inc("reps_run", n)
        group.inc("reps_saved", cap - n)
        if stopped_early:
            group.inc("early_stops")
        summary = {
            "reps_run": n,
            "cap": cap,
            "stopped_early": stopped_early,
            "rel_halfwidth": rel_hw,
            "policy": adaptive.to_dict(),
        }
    return ResultSet(
        spec=spec,
        times=times[:n],
        anomalies=anomalies[:n],
        injected=injecting,
        failures=failures,
        adaptive=summary,
    )
