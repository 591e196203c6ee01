"""Command-line interface: ``repro-noise`` / ``python -m repro``.

Subcommands mirror the paper's workflow:

* ``trace``     — stage 1: collect traces, report the worst case, save it;
* ``configure`` — stage 2: build a noise config JSON from a saved trace
  (or run collection implicitly);
* ``inject``    — stage 3: replay a config against a workload spec;
* ``baseline``  — run a baseline experiment and print statistics;
* ``pipeline``  — all three stages end to end;
* ``table``     — regenerate a paper table (1–7) or ablation;
* ``figure``    — regenerate a paper figure (1–2);
* ``campaign``  — run whole artefact campaigns with fault containment;
  the result cache is the checkpoint, so re-running an interrupted
  campaign simulates only its missing cells;
* ``service``   — the campaign service: ``start`` a lease-based worker
  (or a supervised fleet with ``--workers N --supervise``), ``submit``
  cells or whole sweeps to its durable queue (``--shard`` splits big
  cells into chunk sub-jobs), ``status`` / ``watch`` progress (worker
  liveness included), ``drain`` the queue and exit, ``prune`` old
  finished job rows, ``dlq`` to inspect/revive quarantined poison
  jobs, ``fsck`` to cross-check queue↔store invariants and re-queue
  lost work, ``top`` for a live worker/queue dashboard
  (``status --json`` adds lifecycle-event totals and campaign
  progress; see docs/campaign_service.md);
* ``platforms`` — list platform presets;
* ``noise``     — list registered noise sources and their parameters;
* ``telemetry`` — summarize or re-export a telemetry log collected with
  ``--telemetry DIR`` / ``REPRO_TELEMETRY``, or ``stitch`` per-worker
  logs with the service queue's lifecycle events into one campaign
  trace (see docs/observability.md).

``inject`` and ``pipeline`` accept repeatable ``--noise KIND[:k=v,...]``
flags composing any registered sources (I/O bursts, memory hogs,
HPAS-style anomalies, synthetic background) with — or instead of — the
trace-replay config, all in one run.

Experiment-running subcommands accept ``--timeout`` / ``--retries`` /
``--on-failure`` fault-containment flags (see docs/robustness.md);
results recovered through retries stay bit-identical to undisturbed
runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import signal
import sys
from typing import Optional, Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]

#: ``campaign TARGET`` name -> ``repro.harness.campaigns`` function
#: (imported lazily).  ``table N`` runs ``tableN`` (``ablation`` and
#: ``runlevel3`` by name); ``figure 1|2`` runs ``figure1|2``.
_ARTEFACTS = {
    "table1": "table1",
    "table2": "table2",
    "table3": "table3",
    "table4": "table4",
    "table5": "table5",
    "table6": "table6",
    "table7": "table7",
    "ablation": "merge_ablation",
    "runlevel3": "runlevel3_study",
    "figure1": "figure1",
    "figure2": "figure2",
}


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--platform", default="intel-9700kf", help="platform preset name")
    p.add_argument("--workload", default="nbody", help="nbody | babelstream | minife | schedbench")
    p.add_argument("--model", default="omp", help="programming model: omp | sycl")
    p.add_argument("--strategy", default="Rm", help="Rm | RmHK | RmHK2 | TP | TPHK | TPHK2")
    p.add_argument("--no-smt", action="store_true", help="one thread per physical core")
    p.add_argument("--reps", type=int, default=0, help="repetitions (0 = environment default)")
    p.add_argument("--seed", type=int, default=2025, help="campaign seed")
    p.add_argument("--runlevel3", action="store_true", help="disable GUI noise sources")
    p.add_argument(
        "--anomaly-prob",
        type=float,
        default=None,
        help="override the per-run anomaly probability (hunt accelerator)",
    )


def _jobs_arg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one worker per CPU)")
    return n


def _adaptive_ci_arg(value: str) -> float:
    x = float(value)
    if not x > 0.0:
        raise argparse.ArgumentTypeError("must be > 0 (a relative half-width, e.g. 0.02)")
    return x


def _add_exec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=None,
        help="worker processes for repetitions (default: $REPRO_JOBS or 1; "
        "0 = one per CPU; results are bit-identical at any worker count)",
    )
    p.add_argument(
        "--adaptive-ci",
        type=_adaptive_ci_arg,
        default=None,
        metavar="REL",
        help="stop each cell early once the bootstrap CI half-width of the "
        "mean is below REL x |mean| (e.g. 0.02 = ±2%%); deterministic at any "
        "worker count, capped at the fixed rep budget, cached under a "
        "distinct key (see docs/faq.md)",
    )
    p.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="collect spans/counters during the run and export them to DIR "
        "(events.jsonl, trace.json, counters.prom); equivalent to "
        "REPRO_TELEMETRY=DIR; results are bit-identical either way "
        "(see docs/observability.md)",
    )


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("fault tolerance")
    g.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-repetition wall-time budget (default: none)",
    )
    g.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per failed repetition; retried reps are "
        "bit-identical to clean runs (implies --on-failure retry)",
    )
    g.add_argument(
        "--on-failure",
        choices=["raise", "skip", "retry"],
        default=None,
        help="terminal action once retries are exhausted: raise (fail "
        "fast, default), retry (then raise), or skip (record the "
        "failure, continue with partial results)",
    )


def _policy_from(args) -> Optional["FaultPolicy"]:
    """Build a FaultPolicy from CLI flags (None when none were given)."""
    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", None)
    on_failure = getattr(args, "on_failure", None)
    if timeout is None and retries is None and on_failure is None:
        return None
    from repro.harness.faults import FaultPolicy

    if on_failure is None:
        on_failure = "retry" if retries is not None else "raise"
    kwargs = {"timeout": timeout, "on_failure": on_failure}
    if retries is not None:
        kwargs["max_retries"] = retries
    try:
        return FaultPolicy(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"repro-noise: {exc}")


def _add_noise_args(p: argparse.ArgumentParser, verb: str) -> None:
    p.add_argument(
        "--noise",
        action="append",
        default=[],
        metavar="KIND[:key=val,...]",
        help=f"additional noise source to {verb} (repeatable; "
        "see `repro-noise noise` for kinds and parameters; "
        "CPU lists use `+`, e.g. irq_cpus=0+1)",
    )


def _noise_sources_from(args) -> list:
    from repro.noise import parse_noise_spec

    sources = []
    for text in getattr(args, "noise", []):
        try:
            sources.append(parse_noise_spec(text))
        except (ValueError, OSError) as exc:  # OSError: trace-replay's path
            raise SystemExit(f"repro-noise: --noise {text!r}: {exc}")
    return sources


def _executor_from(args):
    from repro.harness.executor import get_executor

    try:
        return get_executor(getattr(args, "jobs", None))
    except ValueError as exc:
        raise SystemExit(f"repro-noise: {exc}")


def _adaptive_from(args):
    """Build an AdaptivePolicy from --adaptive-ci (None when absent)."""
    target = getattr(args, "adaptive_ci", None)
    if target is None:
        return None
    from repro.harness.adaptive import AdaptivePolicy

    try:
        return AdaptivePolicy(target_rel_hw=target)
    except ValueError as exc:
        raise SystemExit(f"repro-noise: {exc}")


def _spec_from(args) -> "ExperimentSpec":
    from repro.harness.experiment import ExperimentSpec

    return ExperimentSpec(
        platform=args.platform,
        workload=args.workload,
        model=args.model,
        strategy=args.strategy,
        use_smt=not args.no_smt,
        reps=args.reps,
        seed=args.seed,
        runlevel3=args.runlevel3,
        anomaly_prob=args.anomaly_prob,
        adaptive=_adaptive_from(args),
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-noise argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-noise",
        description="Reproducible performance evaluation under trace-replay noise injection",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("platforms", help="list platform presets")

    p = sub.add_parser("baseline", help="run a baseline experiment")
    _add_spec_args(p)
    _add_exec_args(p)
    _add_fault_args(p)
    p.add_argument("--no-tracing", action="store_true", help="disable the OSnoise tracer")

    p = sub.add_parser("trace", help="stage 1: collect traces, save the worst case")
    _add_spec_args(p)
    _add_exec_args(p)
    _add_fault_args(p)
    p.add_argument("--out", default="worst_case.json", help="path for the worst-case trace JSON")

    p = sub.add_parser("configure", help="stage 2: generate a noise config")
    _add_spec_args(p)
    _add_exec_args(p)
    _add_fault_args(p)
    p.add_argument("--merge", choices=["improved", "naive"], default="improved")
    p.add_argument("--out", default="noise_config.json", help="path for the config JSON")

    p = sub.add_parser("inject", help="stage 3: replay noise against a workload")
    _add_spec_args(p)
    _add_exec_args(p)
    _add_fault_args(p)
    p.add_argument(
        "--config",
        default=None,
        help="noise config JSON from `configure` (optional when --noise is given)",
    )
    _add_noise_args(p, "compose into the injected stack")

    p = sub.add_parser("pipeline", help="collect, configure, and inject end to end")
    _add_spec_args(p)
    _add_exec_args(p)
    _add_fault_args(p)
    p.add_argument("--merge", choices=["improved", "naive"], default="improved")
    _add_noise_args(p, "compose with the replayed worst case")

    p = sub.add_parser("noise", help="list registered noise sources")

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument(
        "number",
        choices=[n.removeprefix("table") for n in _ARTEFACTS if not n.startswith("figure")],
    )
    p.add_argument("--seed", type=int, default=2025)
    _add_exec_args(p)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", choices=["1", "2", "3", "4", "5", "6"])
    p.add_argument("--seed", type=int, default=2025)
    _add_exec_args(p)

    p = sub.add_parser(
        "campaign",
        help="run artefact campaigns (re-run to resume: finished cells hit the cache)",
    )
    p.add_argument(
        "target", choices=[*_ARTEFACTS, "all"], help="which artefact campaign to run"
    )
    p.add_argument("--seed", type=int, default=2025)
    _add_exec_args(p)
    _add_fault_args(p)

    p = sub.add_parser(
        "service",
        help="campaign service: durable queue, lease-based workers, shared store",
    )
    svc = p.add_subparsers(dest="action", required=True)

    def _add_service_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--queue",
            default=None,
            metavar="PATH",
            help="queue database (default: $REPRO_SERVICE_QUEUE or "
            ".repro_service/queue.sqlite)",
        )
        sp.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="shared result store directory (default: $REPRO_CACHE_DIR "
            "or .repro_cache — the same keyspace in-process runs use)",
        )

    sp = svc.add_parser(
        "start", help="run a worker: lease jobs, execute, publish to the store"
    )
    _add_service_args(sp)
    _add_exec_args(sp)
    _add_fault_args(sp)
    sp.add_argument(
        "--drain", action="store_true", help="exit once the queue is empty"
    )
    sp.add_argument(
        "--max-jobs", type=int, default=None, metavar="N", help="exit after N jobs"
    )
    sp.add_argument(
        "--lease",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease duration (the worker's heartbeat renews its leases at "
        "most every 2s, sooner for a lease under 6s; a killed worker's jobs "
        "are re-leased this long after its last beat)",
    )
    sp.add_argument(
        "--worker-id", default=None, help="worker name (default: worker-<pid>)"
    )
    sp.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="with --supervise: size of the supervised worker fleet",
    )
    sp.add_argument(
        "--supervise",
        action="store_true",
        help="run a supervisor instead of a worker: spawn N worker "
        "processes, restart crashes with seeded backoff (crash loops are "
        "parked), release dead workers' leases immediately, drain "
        "gracefully on SIGTERM (second signal = fail-fast)",
    )
    sp.add_argument(
        "--supervisor-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="seed of the supervisor's restart-backoff schedule",
    )

    sp = svc.add_parser("submit", help="queue one cell, or a sweep grid")
    _add_service_args(sp)
    _add_spec_args(sp)
    _add_noise_args(sp, "inject for every submitted cell")
    sp.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="FIELD=V1+V2+...",
        help="sweep axis (repeatable); with any --sweep the whole cartesian "
        "grid is queued up front and a sweep id is printed",
    )
    sp.add_argument(
        "--priority", type=int, default=0, help="scheduler priority (higher first)"
    )
    sp.add_argument("--title", default=None, help="sweep title used when rendering")
    sp.add_argument(
        "--shard",
        type=int,
        default=None,
        metavar="REPS",
        help="shard threshold: cells with more reps are split into chunk "
        "sub-jobs of at most REPS reps each, so several workers run one "
        "cell concurrently (default: $REPRO_SHARD_REPS, 0 disables; "
        "results are bit-identical either way)",
    )

    sp = svc.add_parser("status", help="queue counts, sweeps, and store stats")
    _add_service_args(sp)
    sp.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the full status document as JSON instead of text",
    )
    sp.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep printing: refresh on job completions (fifo wakeups) or "
        "at most every SECONDS, until interrupted",
    )

    sp = svc.add_parser("watch", help="wait until submitted work completes")
    _add_service_args(sp)
    sp.add_argument(
        "--sweep-id",
        default=None,
        help="wait for (and then render) one sweep instead of the whole queue",
    )
    sp.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS", help="give up after this long"
    )
    sp.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a progress line at most every SECONDS while waiting "
        "(default: wait silently)",
    )

    sp = svc.add_parser(
        "top",
        help="live dashboard: workers, leases, reps/sec, queue depth, "
        "DLQ size, campaign progress and ETA",
    )
    _add_service_args(sp)
    sp.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh cadence (completions wake it early via the notify "
        "fifo; default 2s)",
    )
    sp.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (no screen clearing)",
    )

    sp = svc.add_parser(
        "drain", help="run an inline worker until the queue is empty, then exit"
    )
    _add_service_args(sp)
    _add_exec_args(sp)
    _add_fault_args(sp)
    sp.add_argument(
        "--keep-finished",
        action="store_true",
        help="skip the automatic prune of finished job rows older than "
        "the retention window after draining",
    )

    sp = svc.add_parser(
        "prune",
        help="delete done/failed job rows older than the retention window "
        "(results are unaffected: they live in the store)",
    )
    _add_service_args(sp)
    sp.add_argument(
        "--older-than",
        default=None,
        metavar="SECONDS",
        help="retention window (default: $REPRO_PRUNE_S or 7 days; 0 "
        "prunes every finished row)",
    )

    sp = svc.add_parser(
        "dlq",
        help="dead-letter queue: jobs quarantined after killing workers "
        "(list, show forensics, retry with a fresh budget, purge)",
    )
    _add_service_args(sp)
    sp.add_argument(
        "dlq_action",
        choices=["list", "show", "retry", "purge"],
        metavar="ACTION",
        help="list | show | retry | purge",
    )
    sp.add_argument(
        "key",
        nargs="?",
        default=None,
        help="job key (required for show/retry; purge without a key "
        "drops every quarantined job)",
    )

    sp = svc.add_parser(
        "fsck",
        help="cross-check queue<->store invariants (lost results, corrupt "
        "entries, unsettled sharded cells, dead workers' leases)",
    )
    _add_service_args(sp)
    sp.add_argument(
        "--repair",
        action="store_true",
        help="re-queue lost work, quarantine corrupt entries, settle "
        "sharded cells whose chunks are all done (merge, else re-queue "
        "lost chunks, else fail the cell, as workers and clients do), "
        "release dead workers' leases, delete orphan chunk files",
    )

    p = sub.add_parser("analyze", help="analyse a saved trace JSON")
    p.add_argument("trace", help="trace JSON from `repro-noise trace`")
    p.add_argument("--top", type=int, default=10, help="sources to show")
    p.add_argument("--bins", type=int, default=20, help="timeline bins")

    p = sub.add_parser(
        "telemetry", help="summarize, re-export, or stitch collected telemetry"
    )
    p.add_argument(
        "action",
        choices=["summarize", "export", "stitch"],
        help="summarize: print a where-did-the-time-go span/counter "
        "breakdown; export: convert the event log to another format; "
        "stitch: join per-worker telemetry with the service queue's "
        "lifecycle events into one cross-process Perfetto trace",
    )
    p.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="telemetry directory from --telemetry/REPRO_TELEMETRY (or the "
        "events.jsonl file itself); stitch accepts several, one per worker",
    )
    p.add_argument(
        "--queue",
        default=None,
        metavar="PATH",
        help="for `stitch`: the service queue database holding the "
        "lifecycle events (default: $REPRO_SERVICE_QUEUE or "
        ".repro_service/queue.sqlite)",
    )
    p.add_argument(
        "--format",
        choices=["chrome", "prom", "jsonl"],
        default="chrome",
        dest="fmt",
        help="export format: chrome trace-event JSON (Perfetto-loadable, "
        "default), Prometheus text, or normalized JSONL",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output file for `export` (default: trace.json / counters.prom "
        "/ events.jsonl in the working directory) or `stitch` "
        "(default: stitched.json)",
    )

    return parser


def _cmd_platforms(args) -> int:
    from repro.sim.platform import available_platforms, get_platform

    for name in available_platforms():
        p = get_platform(name)
        topo = p.topology
        reserved = f", {len(topo.reserved_cpus)} reserved OS cores" if topo.reserved_cpus else ""
        print(
            f"{name:16s} {topo.n_physical} cores x {topo.smt} SMT = "
            f"{topo.n_logical} logical CPUs, {p.bandwidth_gbs:.0f} GB/s{reserved}"
        )
    return 0


def _cmd_baseline(args) -> int:
    from repro.harness.experiment import run_experiment

    spec = _spec_from(args).with_(tracing=not args.no_tracing)
    rs = run_experiment(spec, executor=_executor_from(args), policy=_policy_from(args))
    print(f"{spec.label()}: {rs.summary}")
    print(f"natural anomalies observed: {rs.anomaly_count()}/{len(rs.times)} runs")
    if rs.failures:
        print(f"contained failures: {rs.failure_count()}/{len(rs.times)} reps skipped")
    return 0


def _cmd_trace(args) -> int:
    from repro.core.collection import collect_traces

    coll = collect_traces(
        _spec_from(args), executor=_executor_from(args), policy=_policy_from(args)
    )
    worst = coll.worst_trace
    print(
        f"collected {len(coll.exec_times)} runs, mean {coll.mean_exec_time:.4f}s, "
        f"worst case {coll.worst_exec_time:.4f}s "
        f"(+{coll.worst_case_degradation() * 100:.1f}%, anomaly: {worst.meta.get('anomaly')})"
    )
    with open(args.out, "w") as fh:
        fh.write(worst.to_json())
    print(f"worst-case trace ({worst.n_events} events) written to {args.out}")
    return 0


def _cmd_configure(args) -> int:
    from repro.core.collection import collect_traces
    from repro.core.config import generate_config
    from repro.core.merge import MergeStrategy

    coll = collect_traces(
        _spec_from(args), executor=_executor_from(args), policy=_policy_from(args)
    )
    config = generate_config(
        coll.worst_trace,
        coll.profile,
        merge=MergeStrategy(args.merge),
        meta={"collected_from": _spec_from(args).label()},
    )
    config.save(args.out)
    print(
        f"config written to {args.out}: {config.n_events} events on "
        f"{config.n_cpus} CPUs, {config.total_busy_time() * 1e3:.1f}ms busy"
    )
    return 0


def _cmd_inject(args) -> int:
    from repro.core.pipeline import INJECT_SEED_OFFSET
    from repro.harness.experiment import run_experiment
    from repro.noise import NoiseStack, TraceReplaySource

    sources = _noise_sources_from(args)
    config = None
    if args.config is not None:
        from repro.core.config import NoiseConfig

        try:
            config = NoiseConfig.load(args.config)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro-noise: --config {args.config}: {exc}")
        sources.insert(0, TraceReplaySource(config))
    if not sources:
        raise SystemExit("repro-noise: inject needs --config and/or at least one --noise")
    stack = NoiseStack(sources)
    spec = _spec_from(args)
    executor = _executor_from(args)
    policy = _policy_from(args)
    baseline = run_experiment(spec, executor=executor, policy=policy)
    injected = run_experiment(
        spec.with_(seed=spec.seed + INJECT_SEED_OFFSET),
        noise=stack,
        executor=executor,
        policy=policy,
    )
    delta = (injected.mean / baseline.mean - 1.0) * 100.0
    print(f"noise stack: {stack.describe()}")
    print(f"baseline: {baseline.summary}")
    print(f"injected: {injected.summary}")
    print(f"degradation: {delta:+.1f}%")
    anomaly = config.meta.get("worst_case_exec_time") if config is not None else None
    if anomaly:
        from repro.core.accuracy import replication_accuracy

        print(f"replication accuracy: {replication_accuracy(injected.mean, anomaly) * 100:.2f}%")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.core.merge import MergeStrategy
    from repro.core.pipeline import NoiseInjectionPipeline

    pipe = NoiseInjectionPipeline(
        _spec_from(args),
        merge=MergeStrategy(args.merge),
        executor=_executor_from(args),
        extra_noise=_noise_sources_from(args),
        fault_policy=_policy_from(args),
    )
    result = pipe.run()
    print(result.summary())
    return 0


def _cmd_noise(args) -> int:
    from repro.noise import REQUIRED, available_sources, get_source_type

    print("registered noise sources (compose with repeatable --noise flags):")
    for kind in available_sources():
        cls = get_source_type(kind)
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"\n  {kind}")
        print(f"      {doc}")
        for name, _, default, text in cls.fields:
            if default is REQUIRED:
                text += " (required)"
            elif default is not None:
                shown = "+".join(map(str, default)) if isinstance(default, tuple) else default
                text += f" (default {shown})"
            print(f"      {name:<15} {text}")
    print("\nsyntax: --noise KIND[:key=val,key=val,...]   (CPU lists use `+`: irq_cpus=0+1)")
    return 0


def _artefact_settings(args, **extra):
    """Campaign settings shared by ``table``, ``figure`` and ``campaign``."""
    from repro.harness import campaigns

    return campaigns.CampaignSettings(
        seed=args.seed,
        jobs=args.jobs,
        adaptive=_adaptive_from(args),
        **extra,
    )


def _render_artefact(name: str, settings) -> str:
    from repro.harness import campaigns

    return getattr(campaigns, _ARTEFACTS[name])(settings).render()


def _cmd_table(args) -> int:
    name = args.number if args.number in _ARTEFACTS else f"table{args.number}"
    print(_render_artefact(name, _artefact_settings(args)))
    return 0


def _cmd_figure(args) -> int:
    if f"figure{args.number}" in _ARTEFACTS:
        print(_render_artefact(f"figure{args.number}", _artefact_settings(args)))
    else:
        _demo_figure(int(args.number), args.seed)
    return 0


def _demo_figure(number: int, seed: int) -> None:
    """Figures 3–6 are structural illustrations; render live examples."""
    from repro.core.collection import collect_traces
    from repro.core.config import generate_config
    from repro.core.pipeline import INJECT_SEED_OFFSET
    from repro.core.refine import refine_worst_case
    from repro.harness.experiment import ExperimentSpec, run_experiment
    from repro.noise import TraceReplaySource

    spec = ExperimentSpec(platform="intel-9700kf", workload="nbody", seed=seed, reps=10)
    coll = collect_traces(spec, reps=10, min_degradation=0.0, max_batches=1)
    if number == 3:
        print("Figure 3: sample OSnoise trace records")
        print(coll.worst_trace.to_osnoise_text(limit=12))
        return
    if number == 4:
        refined = refine_worst_case(coll.worst_trace, coll.profile)
        print("Figure 4: delta refinement of the worst-case trace")
        print(f"  worst-case events : {coll.worst_trace.n_events}")
        print(f"  refined (delta)   : {refined.n_events}")
        print(
            f"  noise time        : {coll.worst_trace.total_noise_time() * 1e3:.2f}ms -> "
            f"{refined.total_noise_time() * 1e3:.2f}ms"
        )
        return
    config = generate_config(coll.worst_trace, coll.profile)
    if number == 5:
        print("Figure 5: noise configuration structure")
        print(config.to_json(indent=2)[:2000])
        return
    if number == 6:
        print("Figure 6: injector processing overview")
        injected = run_experiment(
            spec.with_(seed=seed + INJECT_SEED_OFFSET, reps=5), noise=TraceReplaySource(config)
        )
        print(
            f"  spawned {config.n_cpus} injector processes, "
            f"{config.n_events} events, {config.total_busy_time() * 1e3:.1f}ms busy"
        )
        print(f"  baseline mean {coll.mean_exec_time:.4f}s -> injected mean {injected.mean:.4f}s")


def _cmd_campaign(args) -> int:
    settings = _artefact_settings(args, fault_policy=_policy_from(args))
    names = list(_ARTEFACTS) if args.target == "all" else [args.target]
    for name in names:
        print(_render_artefact(name, settings))
        print()
    stats = settings.cache.stats()
    print(
        f"cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['corrupt']} salvaged, {stats['partial']} partial"
    )
    ex_stats = settings.executor.stats()
    if ex_stats:
        print(f"executor: {ex_stats}")
    return 0


def _queue_path(args):
    """``--queue``, else ``$REPRO_SERVICE_QUEUE``, else
    ``.repro_service/queue.sqlite``."""
    import os
    from pathlib import Path

    return Path(
        args.queue or os.environ.get("REPRO_SERVICE_QUEUE", ".repro_service/queue.sqlite")
    )


def _service_parts(args):
    """Queue + store + client from the common ``--queue/--store`` flags."""
    from pathlib import Path

    from repro.service import JobQueue, ServiceClient, SharedResultStore

    queue = JobQueue(_queue_path(args))
    store = SharedResultStore(Path(args.store) if args.store else None)
    return queue, store, ServiceClient(queue, store)


def _prune(queue, older_than=None) -> int:
    """``queue.prune`` over ``--older-than`` (text, or None for
    ``$REPRO_PRUNE_S``); a bad window exits with a ``repro-noise:``
    line that names the flag or the variable."""
    from repro.service.queue import retention_window

    try:
        if older_than is not None:
            older_than = retention_window(older_than, "--older-than")
        return queue.prune(older_than)
    except ValueError as exc:
        raise SystemExit(f"repro-noise: {exc}")


def _sweep_axis(text: str) -> tuple[str, list]:
    """Parse ``field=v1+v2+...`` with per-value type coercion."""
    field, _, raw = text.partition("=")
    if not _ or not raw:
        raise SystemExit(f"repro-noise: --sweep {text!r}: expected FIELD=V1+V2+...")

    def coerce(v: str):
        low = v.lower()
        if low in ("true", "false"):
            return low == "true"
        for kind in (int, float):
            try:
                return kind(v)
            except ValueError:
                continue
        return v

    return field.strip(), [coerce(v) for v in raw.split("+")]


def _cmd_service_dlq(args, queue) -> int:
    action = args.dlq_action
    if action == "list":
        entries = queue.dlq_list()
        if not entries:
            print("dlq: empty")
            return 0
        for job in entries:
            failure = job.failure or {}
            print(
                f"{job.key}  {job.label}  reason={failure.get('reason', '?')}"
                f"  deaths={len(queue.deaths(job.key))}  attempts={job.attempts}"
            )
        return 0

    if action in ("show", "retry") and args.key is None:
        raise SystemExit(f"repro-noise: service dlq {action} requires a job key")

    if action == "show":
        job = queue.job(args.key)
        if job is None:
            raise SystemExit(f"repro-noise: unknown job {args.key!r}")
        failure = job.failure or {}
        record = failure.get("record", {})
        print(f"key:      {job.key}")
        print(f"label:    {job.label}")
        print(f"status:   {job.status}")
        print(f"reason:   {failure.get('reason', '-')}")
        print(f"error:    {record.get('error', '-')}: {record.get('message', job.error or '-')}")
        print(f"attempts: {job.attempts}/{job.max_attempts}")
        if job.chunk_start is not None:
            print(f"chunk:    reps [{job.chunk_start}:{job.chunk_stop}]")
        for death in queue.deaths(job.key):
            pid = death.get("pid")
            print(
                f"death:    worker {death.get('worker')}"
                + (f" (pid {pid})" if pid is not None else "")
                + f" attempt {death.get('attempt')}: {death.get('detail')}"
            )
        if job.spec:
            print("spec:     " + json.dumps(job.spec, sort_keys=True))
        print(f"revive:   repro-noise service dlq retry {job.key}")
        return 0

    if action == "retry":
        if queue.dlq_retry(args.key):
            print(f"re-queued {args.key} with a fresh attempt budget")
            return 0
        raise SystemExit(
            f"repro-noise: {args.key!r} is not quarantined or failed"
        )

    # purge
    purged = queue.dlq_purge(args.key)
    print(f"purged {purged} quarantined job(s)")
    return 0


@contextlib.contextmanager
def _restoring_signal_handlers():
    """Put back the SIGTERM and SIGINT handlers a service loop replaced,
    so an in-process ``main()`` leaves its caller's handlers as found."""
    saved = {sig: signal.getsignal(sig) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        yield
    finally:
        for sig, handler in saved.items():
            signal.signal(sig, handler)


def _check_start_args(args) -> None:
    """Reject a lease that is born expired (<= 0), never expires (nan,
    inf), or a fleet of no workers, before anything is opened."""
    if args.lease is not None and not (math.isfinite(args.lease) and args.lease > 0):
        raise SystemExit(
            f"repro-noise: --lease {args.lease!r}: must be a finite number of seconds > 0"
        )
    if args.workers < 1:
        raise SystemExit(f"repro-noise: --workers {args.workers}: must be >= 1")


def _cmd_service(args) -> int:
    if args.action == "start":
        _check_start_args(args)
    queue, store, client = _service_parts(args)

    if args.action == "start" and getattr(args, "supervise", False):
        from repro.service import Supervisor

        supervisor = Supervisor(
            queue,
            store_root=store.root,
            workers=args.workers,
            seed=getattr(args, "supervisor_seed", 0),
            drain=getattr(args, "drain", False),
            lease_s=getattr(args, "lease", None),
        )
        print(
            f"supervisor {supervisor.id_prefix}: {len(supervisor.slots)} worker(s) "
            f"over {queue.path} -> {store.root}"
        )
        with _restoring_signal_handlers():
            supervisor.install_signal_handlers()
            deaths = supervisor.run()
        print(f"supervisor {supervisor.id_prefix}: {supervisor.stats()}")
        return 0 if deaths == 0 else 1

    if args.action in ("start", "drain"):
        from repro.harness.chaos import in_service_worker, mark_service_worker
        from repro.service import Worker

        worker = Worker(
            queue,
            store,
            worker_id=getattr(args, "worker_id", None),
            executor=_executor_from(args),
            policy=_policy_from(args),
            lease_s=getattr(args, "lease", None) or 60.0,
        )
        # This process is a real service worker while the loop runs: the
        # kill-worker chaos profile may take it down, and SIGTERM means
        # drain gracefully.  Both are undone when the loop returns.
        was_worker = in_service_worker()
        mark_service_worker()
        drain = args.action == "drain" or getattr(args, "drain", False)
        print(
            f"{worker.worker_id}: leasing from {queue.path} "
            f"-> {store.root}" + (" (drain)" if drain else "")
        )
        try:
            with _restoring_signal_handlers():
                worker.install_signal_handlers()
                done = worker.run(drain=drain, max_jobs=getattr(args, "max_jobs", None))
        except KeyboardInterrupt:
            done = -1
            print(f"{worker.worker_id}: interrupted")
        finally:
            mark_service_worker(was_worker)
        print(f"{worker.worker_id}: {worker.stats()}")
        if (
            args.action == "drain"
            and done >= 0
            and not getattr(args, "keep_finished", False)
        ):
            pruned = _prune(queue)
            if pruned:
                print(f"pruned {pruned} finished job row(s) past retention")
        return 0 if done >= 0 else 130

    if args.action == "dlq":
        return _cmd_service_dlq(args, queue)

    if args.action == "fsck":
        from repro.service import fsck

        report = fsck(queue, store, repair=args.repair)
        print(report.summary())
        return 0 if report.clean or report.repaired else 1

    if args.action == "top":
        from repro.service import render_top

        if args.once:
            print(render_top(queue, store))
            return 0
        try:
            while True:
                frame = render_top(queue, store)
                # Clear + home redraw; completions wake the refresh
                # early through the notify fifo, the interval is only
                # the fallback cadence.
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
                with queue.notify_complete.subscribe(
                    probe=queue.data_version
                ) as subscription:
                    subscription.wait(timeout=max(0.1, args.interval))
        except KeyboardInterrupt:
            print()
            return 0

    if args.action == "submit":
        spec = _spec_from(args)
        sources = _noise_sources_from(args)
        noise = None
        if sources:
            from repro.noise import NoiseStack

            noise = NoiseStack(sources)
        axes = dict(_sweep_axis(text) for text in args.sweep)
        if axes:
            sweep_id = client.submit_sweep(
                spec,
                noise=noise,
                priority=args.priority,
                title=args.title,
                shard=args.shard,
                **axes,
            )
            record = queue.sweep(sweep_id)
            stats = client.stats()
            sharded = f", {stats['sharded']} sharded" if stats["sharded"] else ""
            print(
                f"sweep {sweep_id}: {len(record['keys'])} cells queued "
                f"({stats['deduplicated']} already known{sharded})"
            )
            print(f"collect with: repro-noise service watch --sweep-id {sweep_id}")
        else:
            key = client.submit(spec, noise=noise, priority=args.priority, shard=args.shard)
            job = queue.job(key)
            if job is not None and job.status == "sharded":
                n = len(queue.children(key))
                print(f"queued {spec.label()} as {key} ({n} chunk sub-jobs)")
            else:
                print(f"queued {spec.label()} as {key}")
        return 0

    if args.action == "status":

        def _print_status() -> None:
            status = client.status()
            if getattr(args, "as_json", False):
                print(json.dumps(status, indent=2, sort_keys=True))
                return
            jobs = status["jobs"]
            print(
                f"queue {queue.path}: "
                + ", ".join(
                    f"{jobs[k]} {k}"
                    for k in (
                        "queued", "leased", "sharded", "done", "failed", "quarantined",
                    )
                )
            )
            for sw in status["sweeps"]:
                title = f" ({sw['title']})" if sw["title"] else ""
                sharded = f", {sw['sharded']} sharded" if sw.get("sharded") else ""
                quarantined = (
                    f", {sw['quarantined']} quarantined" if sw.get("quarantined") else ""
                )
                print(
                    f"  sweep {sw['id']}{title}: {sw['done']}/{sw['cells']} done, "
                    f"{sw['leased']} leased{sharded}, {sw['failed']} failed"
                    f"{quarantined}"
                )
            for info in status["workers"]:
                # 'lost' is derived from heartbeat age: a crashed worker
                # shows up here immediately, not when its lease expires.
                lease = f" on {info['current_key'][:16]}" if info.get("current_key") else ""
                print(
                    f"  worker {info['id']} (pid {info['pid']}): {info['state']}"
                    f"{lease}, heartbeat {info['heartbeat_age_s']}s ago, "
                    f"{info['jobs_done']} jobs done"
                )
            for entry in status["dlq"]:
                print(f"  dlq {entry['key']} ({entry['label']}): {entry['error']}")
            st = status["store"]
            print(
                f"store {store.root}: {st['hits']} hits, {st['misses']} misses, "
                f"{st['shared_hits']} shared hits, {st['lock_waits']} lock waits, "
                f"{st['chunk_merges']} chunk merges, "
                f"{st['integrity_quarantined']} integrity quarantines"
            )

        interval = getattr(args, "interval", None)
        if interval is None:
            _print_status()
            return 0
        # Refresh loop: completion wakeups (notify fifo) re-print early,
        # the interval is only the fallback cadence.
        try:
            while True:
                _print_status()
                with queue.notify_complete.subscribe(
                    probe=queue.data_version
                ) as subscription:
                    subscription.wait(timeout=max(0.1, interval))
        except KeyboardInterrupt:
            return 0

    if args.action == "prune":
        pruned = _prune(queue, args.older_than)
        print(f"pruned {pruned} finished job row(s) from {queue.path}")
        return 0

    # watch
    keys = None
    if args.sweep_id is not None:
        record = queue.sweep(args.sweep_id)
        if record is None:
            raise SystemExit(f"repro-noise: unknown sweep id {args.sweep_id!r}")
        keys = record["keys"]
    progress = None
    if getattr(args, "interval", None) is not None:

        def progress(counts: dict) -> None:
            pending = counts["queued"] + counts["leased"] + counts["sharded"]
            print(
                f"watch: {counts['done']} done, {pending} pending, "
                f"{counts['failed']} failed, {counts['quarantined']} quarantined"
            )

    try:
        client.wait(
            keys,
            timeout=args.timeout,
            progress=progress,
            progress_interval=getattr(args, "interval", None) or 2.0,
        )
    except TimeoutError as exc:
        raise SystemExit(f"repro-noise: {exc}")
    if args.sweep_id is not None:
        result = client.collect_sweep(args.sweep_id)
        title = queue.sweep(args.sweep_id)["title"] or "sweep"
        print(result.render(title=title))
    else:
        counts = queue.counts()
        print(f"queue drained: {counts['done']} done, {counts['failed']} failed")
    return 0 if queue.counts()["failed"] == 0 else 1


def _cmd_analyze(args) -> int:
    from repro.analysis import busiest_window, noise_timeline, top_sources
    from repro.core.trace import Trace

    with open(args.trace) as fh:
        trace = Trace.from_json(fh.read())
    print(
        f"trace: {trace.n_events} events, {len(trace.sources)} sources, "
        f"exec {trace.exec_time:.4f}s, noise {trace.total_noise_time() * 1e3:.2f}ms"
    )
    print(f"\ntop {args.top} sources by noise time:")
    for row in top_sources(trace, args.top):
        print(f"  {row}")
    edges, noise = noise_timeline(trace, bins=args.bins)
    peak = noise.max() if len(noise) else 0.0
    print(f"\nnoise timeline ({args.bins} bins over the run):")
    for i, value in enumerate(noise):
        bar = "#" * int(round(value / peak * 40)) if peak > 0 else ""
        print(f"  {edges[i]:7.3f}s  {value * 1e3:8.3f}ms |{bar}")
    start, amount = busiest_window(trace, width=trace.exec_time / 10.0)
    print(
        f"\nbusiest {trace.exec_time / 10.0:.3f}s window starts at "
        f"{start:.3f}s with {amount * 1e3:.2f}ms of noise"
    )
    return 0


def _cmd_telemetry(args) -> int:
    from pathlib import Path

    from repro import telemetry

    if args.action == "stitch":
        from repro.service import JobQueue, stitch_trace

        queue_path = _queue_path(args)
        if not queue_path.exists():
            raise SystemExit(
                f"repro-noise: no service queue at {queue_path} (pass --queue, "
                "or set REPRO_SERVICE_QUEUE)"
            )
        queue = JobQueue(queue_path)
        trace = stitch_trace(queue, telemetry_paths=args.paths)
        out = Path(args.out) if args.out is not None else Path("stitched.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(trace))
        phases = [
            e for e in trace["traceEvents"] if (e.get("args") or {}).get("phase")
        ]
        print(
            f"telemetry: stitched {len(trace['traceEvents'])} trace events "
            f"({len(phases)} lifecycle phases, {len(args.paths)} worker "
            f"log(s)) to {out}"
        )
        return 0

    if len(args.paths) != 1:
        raise SystemExit(
            f"repro-noise: telemetry {args.action} takes exactly one PATH"
        )
    path = Path(args.paths[0])
    if path.is_dir():
        path = path / "events.jsonl"
    if not path.exists():
        raise SystemExit(
            f"repro-noise: no telemetry log at {path} (run a command with "
            "--telemetry DIR, or point at an events.jsonl)"
        )
    events, counters = telemetry.load_events_jsonl(path)
    if args.action == "summarize":
        print(f"telemetry log: {path} ({len(events)} spans)")
        print(telemetry.summarize_text(events, counters))
        return 0
    defaults = {"chrome": "trace.json", "prom": "counters.prom", "jsonl": "events.jsonl"}
    out = Path(args.out) if args.out is not None else Path(defaults[args.fmt])
    if args.fmt == "chrome":
        telemetry.write_chrome_trace(out, events)
    elif args.fmt == "prom":
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(telemetry.prometheus_text(counters))
    else:
        telemetry.write_events_jsonl(out, events, counters)
    print(f"telemetry: wrote {args.fmt} export ({len(events)} spans) to {out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        import os

        from repro import telemetry

        # The environment carries the directive so pool workers under a
        # spawn start method re-read it on import; fork workers inherit
        # the module flag directly.
        os.environ["REPRO_TELEMETRY"] = str(telemetry_dir)
        telemetry.refresh_from_env()
    dispatch = {
        "platforms": _cmd_platforms,
        "baseline": _cmd_baseline,
        "trace": _cmd_trace,
        "configure": _cmd_configure,
        "inject": _cmd_inject,
        "pipeline": _cmd_pipeline,
        "noise": _cmd_noise,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "campaign": _cmd_campaign,
        "service": _cmd_service,
        "analyze": _cmd_analyze,
        "telemetry": _cmd_telemetry,
    }
    try:
        return dispatch[args.command](args)
    finally:
        if telemetry_dir is not None:
            from repro import telemetry

            paths = telemetry.export_all()
            print(
                "telemetry: exported "
                + ", ".join(str(paths[k]) for k in ("events", "chrome", "prometheus"))
            )


if __name__ == "__main__":
    sys.exit(main())
