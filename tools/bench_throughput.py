#!/usr/bin/env python3
"""Simulator performance harness: throughput, profiling, regression gates.

Measures runs/sec of :func:`repro.harness.experiment.run_experiment`
for a named scenario under the serial backend (and optionally under
process-pool backends of increasing width, verifying the bit-identity
guarantee on every configuration).  Three output modes grow it beyond
a one-off microbenchmark:

* ``--profile N`` — cProfile the serial run and print the top ``N``
  functions by cumulative time (the first stop for hot-path triage);
* ``--json PATH`` — machine-readable record (scenario, reps/sec, a
  machine-speed calibration, normalized throughput, git revision, and
  a telemetry counter snapshot from one instrumented run — engine
  event counts, cache/executor activity — taken *after* the timing
  loops so instrumentation never touches the measurement); the
  committed baseline lives at ``benchmarks/out/bench_sim.json``;
* ``--check-against BASELINE`` — exit non-zero when normalized
  throughput regressed more than ``--max-regression`` (default 20%)
  vs. a previous ``--json`` record.  CI runs this as the perf smoke
  gate (see ``.github/workflows/ci.yml``).

Scenarios::

    baseline   intel-9700kf/nbody     — engine + placement dominated
    sim-bound  a64fx/minife           — scheduler rate-recompute and
                                        memory-rescale dominated (the
                                        paper-scale hot path)
    batched    a64fx/minife           — the sim-bound cell through the
                                        batched parallel path (resolved
                                        per-spec contexts + pickled
                                        chunk results); gains scale
                                        with available cores
    adaptive   a64fx/minife           — the sim-bound cell under a ±5 %
                                        adaptive-CI stop rule; reports
                                        reps actually run per cell
    service    a64fx/minife           — the sim-bound cell submitted to
                                        the campaign service (durable
                                        queue + lease worker + shared
                                        store) and drained inline; the
                                        number is end-to-end including
                                        the queue/lease/store tax, and
                                        bit-identity to serial is a
                                        hard failure.  Also probes the
                                        queue tax itself (submit→lease /
                                        submit→complete from queue-row
                                        timestamps, notify channel on vs
                                        the poll fallback) and intra-cell
                                        sharding (the cell split into
                                        chunk sub-jobs drained by two
                                        worker processes) and the
                                        monitoring tax (submit→complete
                                        latency with a MonitorServer
                                        scraping /metrics continuously
                                        vs no monitor at all); committed
                                        baseline:
                                        benchmarks/out/bench_service.json

Usage::

    PYTHONPATH=src python tools/bench_throughput.py                     # serial vs pools
    PYTHONPATH=src python tools/bench_throughput.py --scenario sim-bound --serial-only
    PYTHONPATH=src python tools/bench_throughput.py --scenario sim-bound --profile 25
    PYTHONPATH=src python tools/bench_throughput.py --scenario sim-bound \
        --json /tmp/now.json --check-against benchmarks/out/bench_sim.json

Expected parallel scaling: reps are embarrassingly parallel, so on an
idle N-core machine the pool approaches N× (pickling traces back is the
main tax; ``--tracing`` off shows the ceiling).  On fewer cores than
workers the pool degrades gracefully to ~1×; the determinism guarantee
holds at any width.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.harness.executor import ParallelExecutor, SerialExecutor  # noqa: E402
from repro.harness.experiment import ExperimentSpec, run_experiment  # noqa: E402
from repro.harness.report import TableBuilder  # noqa: E402

#: named benchmark scenarios (platform, workload, params, default reps)
SCENARIOS = {
    "baseline": {
        "platform": "intel-9700kf",
        "workload": "nbody",
        "workload_params": {},
        "reps": 60,
    },
    # The scheduler-bound case: 48 streaming threads on A64FX drive the
    # memory-rescale cascade on nearly every completion event.
    "sim-bound": {
        "platform": "a64fx",
        "workload": "minife",
        "workload_params": {"cg_iters": 40},
        "reps": 12,
    },
    # The sim-bound cell dispatched through the batched parallel path:
    # per-spec contexts resolved once per worker, chunk results returned
    # by pickle.  Measured against its own committed baseline
    # (benchmarks/out/bench_batched.json) as a regression gate; the
    # speedup over serial scales with the host's core count.
    "batched": {
        "platform": "a64fx",
        "workload": "minife",
        "workload_params": {"cg_iters": 40},
        "reps": 24,
        "mode": "batched",
        "jobs": 2,
        # every probed width lands in the JSON record's "points"; the
        # regression gate compares only the canonical "jobs" width
        "probe_jobs": [1, 2, 4],
    },
    # The sim-bound cell under CI-driven early stopping: reps/sec here
    # counts reps *actually run*; the interesting number is
    # mean_reps_per_cell (how much work the stop rule saved).
    "adaptive": {
        "platform": "a64fx",
        "workload": "minife",
        "workload_params": {"cg_iters": 40},
        "reps": 40,
        "mode": "adaptive",
        "adaptive": {"target_rel_hw": 0.05, "min_reps": 8, "batch": 8, "n_boot": 300},
    },
    # The sim-bound cell through the whole campaign service: submit to
    # a fresh durable queue, lease + execute with an inline worker,
    # publish to the shared store, read back.  Measures the service tax
    # over a plain serial run (each timing repeat uses a fresh queue and
    # store so nothing is served from cache).
    "service": {
        "platform": "a64fx",
        "workload": "minife",
        "workload_params": {"cg_iters": 40},
        "reps": 12,
        "mode": "service",
        # intra-cell sharding probe: the scenario cell split into
        # shard-rep chunks drained by this many worker *processes*
        "shard": 3,
        "shard_workers": 2,
    },
}


def calibrate() -> float:
    """Machine-speed proxy in Mops/s: a fixed pure-Python loop.

    Deliberately exercises none of the simulator's code, so the
    normalized throughput (reps/sec ÷ calibration) cancels host speed
    differences between the committed baseline and a CI runner while
    still tracking real simulator regressions.
    """
    n = 300_000
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(n):
            acc += 1.0000001 * i - acc * 0.5
        best = max(best, n / (time.perf_counter() - t0))
    return best / 1e6


def telemetry_snapshot(spec: ExperimentSpec) -> dict:
    """Counter deltas from one instrumented serial run.

    Runs after the timing loops (never inside them), so the record
    documents what one run *does* — engine events executed, heap
    compactions, executor activity — without instrumentation showing
    up in the timed numbers.
    """
    from repro import telemetry

    was_enabled = telemetry.enabled()
    telemetry.configure(enabled=True)
    try:
        token = telemetry.worker_capture_begin(None)
        run_experiment(spec, executor=SerialExecutor())
        counters = telemetry.worker_capture_end(token)["counters"]
    finally:
        telemetry.configure(enabled=was_enabled)
    return counters


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def bench(spec: ExperimentSpec, executor, repeats: int) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` runs/sec and the result vector."""
    best = 0.0
    times = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        rs = run_experiment(spec, executor=executor)
        elapsed = time.perf_counter() - t0
        best = max(best, len(rs.times) / elapsed)
        times = rs.times
    return best, times


def bench_service(spec: ExperimentSpec, repeats: int) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` end-to-end service runs/sec and the result.

    Each repeat gets a fresh queue database and store directory, so the
    measured time is always submit → lease → execute → publish → read
    back, never a cache hit.
    """
    import shutil
    import tempfile

    from repro.service import JobQueue, ServiceClient, SharedResultStore, Worker

    best = 0.0
    times = None
    for _ in range(repeats):
        tmp = Path(tempfile.mkdtemp(prefix="bench_service_"))
        try:
            queue = JobQueue(tmp / "queue.sqlite")
            store = SharedResultStore(tmp / "store")
            client = ServiceClient(queue, store)
            t0 = time.perf_counter()
            client.submit(spec)
            Worker(
                queue, store, executor=SerialExecutor(), poll_s=0.01
            ).run(drain=True)
            rs = store.load_for(spec)
            elapsed = time.perf_counter() - t0
            if rs is None:
                raise RuntimeError("service run left no store entry")
            best = max(best, len(rs.times) / elapsed)
            times = rs.times
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return best, times


def bench_notify_latency(notify: bool, rounds: int = 5) -> dict:
    """Queue-tax probe: submit→lease and submit→complete latency of a
    tiny cell against an *idle* worker, from the queue's own row
    timestamps (``started_at``/``finished_at`` − ``submitted_at``).

    ``notify=True`` measures the fifo notify channel; ``False`` forces
    ``REPRO_NOTIFY=0``, i.e. the poll fallback — the difference is the
    wakeup tax the channel removes.  The cell is deliberately tiny so
    the queue tax dominates execution time.
    """
    import shutil
    import tempfile
    import threading

    from repro.service import JobQueue, ServiceClient, SharedResultStore, Worker

    prev = os.environ.get("REPRO_NOTIFY")
    os.environ["REPRO_NOTIFY"] = "1" if notify else "0"
    tmp = Path(tempfile.mkdtemp(prefix="bench_notify_"))
    try:
        queue = JobQueue(tmp / "queue.sqlite")
        store = SharedResultStore(tmp / "store")
        client = ServiceClient(queue, store)
        worker = Worker(queue, store, executor=SerialExecutor(), poll_s=0.5)
        thread = threading.Thread(target=worker.run, kwargs={"drain": False})
        thread.start()
        lease_lat, complete_lat, collect_lat = [], [], []
        try:
            for i in range(rounds):
                time.sleep(0.3)  # let the worker park idle
                tiny = ExperimentSpec(
                    platform="intel-9700kf",
                    workload="nbody",
                    reps=1,
                    seed=9000 + i,
                    tracing=False,
                )
                t0 = time.perf_counter()
                key = client.submit(tiny)
                client.wait([key], timeout=120)
                collect_lat.append(time.perf_counter() - t0)
                job = queue.job(key)
                lease_lat.append(job.started_at - job.submitted_at)
                complete_lat.append(job.finished_at - job.submitted_at)
        finally:
            worker.stop()
            queue.notify_submit.notify()  # unpark an idle fifo wait
            thread.join(timeout=30)
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return {
            "notify": notify,
            "rounds": rounds,
            "worker_poll_s": 0.5,
            "submit_to_lease_s": round(mean(lease_lat), 6),
            "submit_to_lease_min_s": round(min(lease_lat), 6),
            "submit_to_complete_s": round(mean(complete_lat), 6),
            "submit_to_collect_s": round(mean(collect_lat), 6),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if prev is None:
            os.environ.pop("REPRO_NOTIFY", None)
        else:
            os.environ["REPRO_NOTIFY"] = prev


def bench_monitor_overhead(monitor: bool, rounds: int = 5) -> dict:
    """Monitoring-tax probe: the notify-latency scenario re-run with a
    :class:`~repro.service.monitor.MonitorServer` scraping ``/metrics``
    continuously (``monitor=True``) vs no monitor at all.

    The delta bounds what a live observability plane adds to the
    submit→complete path.  It is expected to be ~zero: every endpoint
    is read-only, so a scrape costs the worker at most a short turn on
    the queue's connection lock.
    """
    import shutil
    import tempfile
    import threading
    import urllib.request

    from repro.service import JobQueue, MonitorServer, ServiceClient, SharedResultStore, Worker

    tmp = Path(tempfile.mkdtemp(prefix="bench_monitor_"))
    scrapes = 0
    try:
        queue = JobQueue(tmp / "queue.sqlite")
        store = SharedResultStore(tmp / "store")
        client = ServiceClient(queue, store)
        worker = Worker(queue, store, executor=SerialExecutor(), poll_s=0.5)
        thread = threading.Thread(target=worker.run, kwargs={"drain": False})
        thread.start()
        server = None
        stop_scrape = threading.Event()
        scraper = None
        if monitor:
            server = MonitorServer(queue, store).start()

            def scrape_loop():
                nonlocal scrapes
                while not stop_scrape.is_set():
                    with urllib.request.urlopen(
                        f"{server.url}/metrics", timeout=5
                    ) as resp:
                        resp.read()
                    scrapes += 1
                    stop_scrape.wait(0.02)

            scraper = threading.Thread(target=scrape_loop)
            scraper.start()
        complete_lat = []
        try:
            for i in range(rounds):
                time.sleep(0.3)  # let the worker park idle
                tiny = ExperimentSpec(
                    platform="intel-9700kf",
                    workload="nbody",
                    reps=1,
                    seed=9100 + i,
                    tracing=False,
                )
                key = client.submit(tiny)
                client.wait([key], timeout=120)
                job = queue.job(key)
                complete_lat.append(job.finished_at - job.submitted_at)
        finally:
            worker.stop()
            queue.notify_submit.notify()  # unpark an idle fifo wait
            thread.join(timeout=30)
            if scraper is not None:
                stop_scrape.set()
                scraper.join(timeout=10)
            if server is not None:
                server.stop()
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return {
            "monitor": monitor,
            "rounds": rounds,
            "scrapes": scrapes,
            "submit_to_complete_s": round(mean(complete_lat), 6),
            "submit_to_complete_min_s": round(min(complete_lat), 6),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


_BENCH_WORKER = """\
import sys
sys.path.insert(0, {src!r})
from pathlib import Path
from repro.service import JobQueue, SharedResultStore, Worker
from repro.harness.executor import SerialExecutor
Worker(
    JobQueue(Path({queue!r})),
    SharedResultStore(Path({store!r})),
    executor=SerialExecutor(),
    poll_s=0.05,
).run(drain=True)
"""


def _drain_with_processes(tmp: Path, n_workers: int) -> float:
    """Wall seconds for ``n_workers`` subprocess workers to drain."""
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                _BENCH_WORKER.format(
                    src=str(ROOT / "src"),
                    queue=str(tmp / "queue.sqlite"),
                    store=str(tmp / "store"),
                ),
            ]
        )
        for _ in range(n_workers)
    ]
    t0 = time.perf_counter()
    for proc in procs:
        proc.wait(timeout=1800)
        if proc.returncode != 0:
            raise RuntimeError(f"bench worker exited {proc.returncode}")
    return time.perf_counter() - t0


def bench_shard(
    spec: ExperimentSpec, shard: int, n_workers: int, reference: np.ndarray
) -> dict:
    """Intra-cell sharding probe: the scenario cell drained whole by one
    worker process vs. sharded into ``shard``-rep chunks drained by
    ``n_workers`` processes.  Bit-identity to the serial reference is a
    hard failure either way."""
    import math
    import shutil
    import tempfile

    from repro.service import JobQueue, ServiceClient, SharedResultStore

    walls = {}
    for label, shard_arg, workers in (
        ("whole", None, 1),
        ("sharded", shard, n_workers),
    ):
        tmp = Path(tempfile.mkdtemp(prefix="bench_shard_"))
        try:
            queue = JobQueue(tmp / "queue.sqlite")
            store = SharedResultStore(tmp / "store")
            ServiceClient(queue, store).submit(spec, shard=shard_arg)
            walls[label] = _drain_with_processes(tmp, workers)
            rs = store.load_for(spec)
            if rs is None:
                raise RuntimeError(f"{label} service run left no store entry")
            if not (rs.times == reference).all():
                raise RuntimeError(f"{label} service results diverged from serial")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return {
        "shard": shard,
        "workers": n_workers,
        "chunks": math.ceil(spec.reps / shard),
        "whole_cell_s": round(walls["whole"], 4),
        "sharded_s": round(walls["sharded"], 4),
        "speedup": round(walls["whole"] / walls["sharded"], 3),
    }


def profile_serial(spec: ExperimentSpec, top: int) -> None:
    import cProfile
    import pstats

    pr = cProfile.Profile()
    pr.enable()
    run_experiment(spec, executor=SerialExecutor())
    pr.disable()
    stats = pstats.Stats(pr)
    stats.sort_stats("cumulative")
    print(f"cProfile: {spec.label()}, top {top} by cumulative time")
    stats.print_stats(top)


def check_against(baseline_path: Path, record: dict, max_regression: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("scenario") != record["scenario"]:
        print(
            f"FATAL: baseline scenario {baseline.get('scenario')!r} != "
            f"measured {record['scenario']!r}",
            file=sys.stderr,
        )
        return 1
    base = baseline["normalized_rps"]
    now = record["normalized_rps"]
    change = (now - base) / base
    print(
        f"perf gate [{record['scenario']}]: normalized {base:.3f} -> {now:.3f} "
        f"({change:+.1%}; raw {record['reps_per_sec']:.2f} reps/s, "
        f"calibration {record['calibration_mops']:.2f} Mops/s)"
    )
    if change < -max_regression:
        print(
            f"FAIL: normalized throughput regressed {-change:.1%} "
            f"(> {max_regression:.0%} allowed). If this is expected (e.g. a "
            "deliberate model change), refresh benchmarks/out/bench_sim.json "
            "or apply the skip-perf label (see README).",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scenario", choices=sorted(SCENARIOS), default="baseline")
    ap.add_argument("--platform", default=None, help="override scenario platform")
    ap.add_argument("--workload", default=None, help="override scenario workload")
    ap.add_argument("--reps", type=int, default=None, help="reps per experiment (paper cell: 1000)")
    ap.add_argument("--seed", type=int, default=2025)
    ap.add_argument("--jobs", type=int, nargs="*", default=[2, 4], help="pool widths to probe")
    ap.add_argument("--serial-only", action="store_true", help="skip the pool backends")
    ap.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    ap.add_argument("--no-tracing", action="store_true", help="measure without the tracer")
    ap.add_argument("--profile", type=int, metavar="N", default=0,
                    help="cProfile the serial run; print top N by cumtime")
    ap.add_argument("--json", metavar="PATH", default=None,
                    help="write a machine-readable record (reps/sec, calibration, git rev)")
    ap.add_argument("--check-against", metavar="BASELINE", default=None,
                    help="fail if normalized reps/sec regressed vs. a --json baseline")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="allowed fractional regression for --check-against (default 0.20)")
    ap.add_argument("--publish", action="store_true", help="write benchmarks/out/bench_throughput.txt")
    args = ap.parse_args(argv)

    scenario = SCENARIOS[args.scenario]
    mode = scenario.get("mode", "serial")
    pool_jobs = scenario.get("jobs", 2)
    adaptive = None
    if scenario.get("adaptive"):
        from repro.harness.adaptive import AdaptivePolicy

        adaptive = AdaptivePolicy.from_dict(scenario["adaptive"])
    spec = ExperimentSpec(
        platform=args.platform or scenario["platform"],
        workload=args.workload or scenario["workload"],
        reps=args.reps if args.reps is not None else scenario["reps"],
        seed=args.seed,
        tracing=not args.no_tracing,
        workload_params=dict(scenario["workload_params"]),
        adaptive=adaptive,
    )

    if args.profile:
        profile_serial(spec, args.profile)
        return 0

    serial_rps, reference = bench(spec, SerialExecutor(), args.repeats)
    measured_rps = serial_rps
    transport = "serial"

    tb = TableBuilder(["backend", "runs/sec", "speedup", "bit-identical"])
    tb.add_row("serial", f"{serial_rps:.1f}", "1.00x", "-")
    points = []
    if mode == "batched":
        # The scenario's measured number *is* the batched parallel path;
        # bit-identity to serial stays a hard failure.  Every width in
        # probe_jobs is measured and recorded; the canonical "jobs"
        # width feeds the regression gate.
        for jobs in scenario.get("probe_jobs", [pool_jobs]):
            with ParallelExecutor(jobs) as ex:
                rps, times = bench(spec, ex, args.repeats)
            identical = bool((times == reference).all())
            tb.add_row(
                f"batched jobs={jobs}",
                f"{rps:.1f}", f"{rps / serial_rps:.2f}x", str(identical),
            )
            if not identical:
                print("FATAL: batched results diverged from serial", file=sys.stderr)
                return 1
            points.append({"jobs": jobs, "reps_per_sec": round(rps, 4)})
            if jobs == pool_jobs:
                measured_rps = rps
                transport = "pickle"
    latency = None
    shard_probe = None
    monitor_probe = None
    if mode == "service":
        # End-to-end through the durable queue + lease worker + shared
        # store; the gap to serial is the service tax per cell.
        measured_rps, times = bench_service(spec, args.repeats)
        transport = "service"
        identical = bool((times == reference).all())
        tb.add_row(
            "service (queue+worker+store)",
            f"{measured_rps:.1f}", f"{measured_rps / serial_rps:.2f}x", str(identical),
        )
        if not identical:
            print("FATAL: service results diverged from serial", file=sys.stderr)
            return 1
        # Queue-tax probes: event-driven wakeups vs the poll fallback,
        # and the scenario cell sharded across worker processes.
        latency = {
            "notify": bench_notify_latency(notify=True),
            "poll": bench_notify_latency(notify=False),
        }
        if latency["notify"]["submit_to_complete_s"] >= latency["poll"]["submit_to_complete_s"]:
            print(
                "WARNING: notify channel did not beat the poll fallback "
                f"({latency['notify']['submit_to_complete_s']*1e3:.1f} ms vs "
                f"{latency['poll']['submit_to_complete_s']*1e3:.1f} ms) — "
                "noisy host?",
                file=sys.stderr,
            )
        # Monitoring-tax probe: the same idle-worker tiny-cell latency
        # with a MonitorServer scraping /metrics continuously vs none.
        monitor_probe = {
            "off": bench_monitor_overhead(monitor=False),
            "on": bench_monitor_overhead(monitor=True),
        }
        try:
            shard_probe = bench_shard(
                spec,
                shard=scenario.get("shard", 3),
                n_workers=scenario.get("shard_workers", 2),
                reference=reference,
            )
        except RuntimeError as exc:
            print(f"FATAL: {exc}", file=sys.stderr)
            return 1
    elif not args.serial_only:
        for jobs in args.jobs:
            with ParallelExecutor(jobs) as ex:
                rps, times = bench(spec, ex, args.repeats)
            identical = bool((times == reference).all())
            tb.add_row(f"parallel jobs={jobs}", f"{rps:.1f}", f"{rps / serial_rps:.2f}x", str(identical))
            if not identical:
                print("FATAL: parallel results diverged from serial", file=sys.stderr)
                return 1

    mean_reps_per_cell = float(len(reference))
    text = (
        f"Throughput [{args.scenario}]: {spec.label()} x{spec.reps} reps "
        f"(mode {mode}, tracing {'on' if spec.tracing else 'off'}, "
        f"{os.cpu_count()} CPUs)\n" + tb.render()
    )
    if mode == "adaptive":
        text += (
            f"\nadaptive stop rule ran {mean_reps_per_cell:.0f}/{spec.reps} reps "
            f"(reps/sec above counts reps actually run)"
        )
    if latency is not None:
        text += (
            "\nqueue tax (idle worker, tiny cell, queue-row timestamps):"
            f"\n  notify on:  submit->lease {latency['notify']['submit_to_lease_s']*1e3:7.2f} ms, "
            f"submit->complete {latency['notify']['submit_to_complete_s']*1e3:7.2f} ms"
            f"\n  notify off: submit->lease {latency['poll']['submit_to_lease_s']*1e3:7.2f} ms, "
            f"submit->complete {latency['poll']['submit_to_complete_s']*1e3:7.2f} ms"
        )
    if monitor_probe is not None:
        text += (
            "\nmonitoring tax (same probe, /metrics scraped continuously):"
            f"\n  monitor off: submit->complete "
            f"{monitor_probe['off']['submit_to_complete_s']*1e3:7.2f} ms"
            f"\n  monitor on:  submit->complete "
            f"{monitor_probe['on']['submit_to_complete_s']*1e3:7.2f} ms "
            f"({monitor_probe['on']['scrapes']} scrapes served)"
        )
    if shard_probe is not None:
        text += (
            f"\nsharding: {shard_probe['chunks']} chunks x {shard_probe['shard']} reps "
            f"across {shard_probe['workers']} worker processes: "
            f"{shard_probe['whole_cell_s']:.2f}s whole -> "
            f"{shard_probe['sharded_s']:.2f}s sharded "
            f"({shard_probe['speedup']:.2f}x, bit-identical)"
        )
    print(text)

    record = None
    if args.json or args.check_against:
        calib = calibrate()
        record = {
            "scenario": args.scenario,
            "platform": spec.platform,
            "workload": spec.workload,
            "workload_params": dict(spec.workload_params),
            "reps": spec.reps,
            "tracing": spec.tracing,
            "mode": mode,
            "jobs": pool_jobs if mode == "batched" else 1,
            "transport": transport,
            "host_cpus": os.cpu_count(),
            "mean_reps_per_cell": round(mean_reps_per_cell, 2),
            "reps_per_sec": round(measured_rps, 4),
            "calibration_mops": round(calib, 4),
            "normalized_rps": round(measured_rps / calib, 4),
            "git_rev": git_rev(),
            "telemetry": telemetry_snapshot(spec),
        }
        if points:
            record["points"] = points
        if latency is not None:
            record["latency"] = latency
        if monitor_probe is not None:
            record["monitor"] = monitor_probe
        if shard_probe is not None:
            record["shard"] = shard_probe
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"json record written to {out}")
    if args.publish:
        out = ROOT / "benchmarks" / "out" / "bench_throughput.txt"
        out.parent.mkdir(exist_ok=True)
        out.write_text(text + "\n")
        print(f"\nwritten to {out}")
    if args.check_against:
        return check_against(Path(args.check_against), record, args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())
