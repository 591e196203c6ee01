"""The ``service-open`` workload: open-loop load on the campaign service.

A fresh queue and store get a fleet of :data:`~bench.workloads.POOL_JOBS`
worker processes (``bench/worker.py``).  Two phases run one after the
other and are never mixed, so that each measures one mechanism and
sharded cells cannot stall the open loop's tail:

* **Phase A** — one generator thread submits tiny cells at
  :data:`RATE` cells/s on a fixed schedule, whether or not the service
  keeps up, in windows of :data:`WINDOW_S` seconds that each drain
  before the next.  Each cell is timed from when it was *due* to its queue
  row's ``finished_at``, so a stall also charges the cells queued
  behind it.  The generator's own lateness is checked: above
  :data:`LAG_LIMIT_MS` at p99 the run is marked invalid, and
  ``bench compare`` leaves it out.
* **Phase B** — closed rounds: each submits :data:`ROUND_CELLS` minife
  cells at once, sharded into 3-rep chunk jobs, and is timed from its
  first submit to its last merge.
"""

from __future__ import annotations

import contextlib
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from bench import ROOT
from bench.layers import EVENT_KINDS, Trace, add_counters, service_timers
from bench.measure import PairCalibrator, Timing, percentile, same_floats, stop_process, tail
from bench.workloads import POOL_JOBS, Run, Workload, check_result, minife_cell, samples

#: phase-A arrival rate, cells/s (about 30% utilisation of 2 workers)
RATE = 30.0
#: phase A runs as back-to-back open-loop windows of this many seconds,
#: each timed between its own host calibrations
WINDOW_S = 3.0
#: generator lateness (p99) above which a run is invalid
LAG_LIMIT_MS = 10.0
#: share of ``--seconds`` given to phase A; phase B is fixed work
PHASE_A_SHARE = 0.5
#: phase B: rounds of ROUND_CELLS minife cells submitted at once, each
#: round one throughput sample; every cell shards into SHARD-rep chunks
PHASE_B_ROUNDS = 6
ROUND_CELLS = 2
SHARD = 3
#: phase-A seconds in the traced subset, and its arrival rate: profiled
#: workers run about 3x slower, so a third of the rate keeps them below
#: saturation, as the untraced fleet is
TRACED_A_S = 10.0
TRACED_RATE = RATE / 3
#: phase-A seconds of quick runs (which run one phase-B round)
QUICK_A_S = 3.0
#: phase-A cells in the digest
PREFIX_A = 40
#: upper bound on any drain wait
WAIT_S = 120.0


def tiny_cell(seed: int):
    """A phase-A cell: five untraced nbody reps, about 15 ms of simulation.

    Small enough that the queue, notify and store steps are a large
    share of a cell's latency, and that the fleet stays about 30% busy:
    at higher utilisation the median latency grows with every slow spell
    of a shared host, and runs stop agreeing.
    """
    from repro.harness.experiment import ExperimentSpec

    return ExperimentSpec(
        platform="intel-9700kf", workload="nbody", reps=5, tracing=False, seed=seed
    )


def open_loop(
    submit: Callable, specs: Sequence, rate: float
) -> tuple[list, list[float], list[float]]:
    """Submit ``specs`` on a fixed schedule of ``rate`` per second.

    Returns the submit results, each spec's due time (wall-clock
    seconds, the clock of the queue's timestamps) and how late each
    submit started, in ms.
    """
    start = time.time() + 0.05
    keys, dues, lags = [], [], []
    for i, spec in enumerate(specs):
        due = start + i / rate
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        lags.append(1e3 * (time.time() - due))
        dues.append(due)
        keys.append(submit(spec))
    return keys, dues, lags


def loadgen_valid(lags_ms: Sequence[float]) -> bool:
    """Whether the generator kept to its schedule (p99 lateness)."""
    return percentile(lags_ms, 99) <= LAG_LIMIT_MS


class Fleet:
    """A queue, a store, a client and a fleet of worker processes.

    Entering starts the workers and waits until all have registered
    with the queue; leaving drains them with SIGTERM and waits for
    every process to end.
    """

    def __init__(self, root: Path, trace: bool = False):
        from repro.service import JobQueue, ServiceClient, SharedResultStore

        self.queue = JobQueue(root / "queue.sqlite")
        self.store = SharedResultStore(root / "store")
        self.client = ServiceClient(self.queue, self.store)
        self.trace_paths = [root / f"worker{i}.json" for i in range(POOL_JOBS)] if trace else []
        self.procs: list[subprocess.Popen] = []
        self.codes: list[int] = []

    def __enter__(self) -> "Fleet":
        try:
            for i in range(POOL_JOBS):
                cmd = [
                    sys.executable, str(ROOT / "bench" / "worker.py"),
                    "--queue", str(self.queue.path), "--store", str(self.store.root),
                    "--id", f"bench-w{i}",
                ]
                if self.trace_paths:
                    cmd += ["--trace", str(self.trace_paths[i])]
                self.procs.append(subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL))
            self._wait_registered()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _wait_registered(self, timeout: float = 60.0) -> None:
        end = time.monotonic() + timeout
        while True:
            live = [w for w in self.queue.workers() if w.state in ("idle", "busy")]
            if len(live) >= len(self.procs):
                return
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError("a service worker exited during start-up")
            if time.monotonic() > end:
                raise TimeoutError("service workers did not register")
            time.sleep(0.005)

    def settle(self, keys: Sequence[str], timeout: float = WAIT_S) -> list:
        """Wait until every job in ``keys`` is finished, sharded parents
        included (their merge lands after the last chunk completes);
        returns the final job rows."""
        subscription = self.queue.notify_complete.subscribe(probe=self.queue.data_version)
        try:
            end = time.monotonic() + timeout
            while True:
                jobs = [self.queue.job(key) for key in keys]
                if all(job.status not in ("queued", "leased", "sharded") for job in jobs):
                    return jobs
                if time.monotonic() > end:
                    raise TimeoutError(f"service jobs not finished after {timeout:.0f}s")
                subscription.wait(0.05)
        finally:
            subscription.close()

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        self.queue.notify_submit.notify()  # wake workers parked on the channel
        self.codes = [stop_process(proc) for proc in self.procs]
        self.queue.close()

    def traces(self) -> list[dict]:
        return [json.loads(path.read_text()) for path in self.trace_paths]


class ServiceOpen(Workload):
    """Open-loop tiny cells, then sharded minife cells, through the service."""

    name = "service-open"

    @contextlib.contextmanager
    def ready(self, work: Path):
        from repro.harness.experiment import resolve_context

        resolve_context(tiny_cell(0))
        with Fleet(work):
            yield

    def _phase_a(self, run: Run, fleet: Fleet, seconds: float, rate: float = RATE):
        """Open-loop arrivals for ``seconds``, in windows of :data:`WINDOW_S`.

        Each window is its own open loop, timed between two host
        calibrations and drained before the next one starts.  Returns
        the specs, their job rows, ``(latency_ms, scale)`` for each
        finished cell and the generator's lateness per submit.
        """
        # One 1-rep cell first, untimed, so the client's and the workers'
        # first-use costs (contexts, connections) stay out of the loop.
        warm = tiny_cell(run.seed).with_(reps=1)
        (job,) = fleet.settle([fleet.client.submit(warm)])
        run.attempted += 1
        run.check(job.status == "done", f"warm-up cell: {job.status}")
        specs = [tiny_cell(run.seed + i) for i in range(int(rate * seconds))]
        per_window = max(1, int(rate * WINDOW_S))
        jobs, latencies, lags = [], [], []
        for start in range(0, len(specs), per_window):
            window = specs[start:start + per_window]
            with run.timed() as timing:
                keys, dues, late = open_loop(fleet.client.submit, window, rate)
                rows = fleet.settle(keys)
            lags += late
            jobs += rows
            for spec, job, due in zip(window, rows, dues):
                run.attempted += 1
                if run.check(job.status == "done", f"service cell seed {spec.seed}: {job.status}"):
                    latencies.append((1e3 * (job.finished_at - due), timing.scale))
        return specs, jobs, latencies, lags

    def _phase_b(self, run: Run, fleet: Fleet, round_: int):
        """One round: submit its cells at once, wait for the last merge."""
        first = run.seed + round_ * ROUND_CELLS
        specs = [minife_cell(first + i) for i in range(ROUND_CELLS)]
        t0 = time.time()
        jobs = fleet.settle([fleet.client.submit(spec, shard=SHARD) for spec in specs])
        for spec, job in zip(specs, jobs):
            run.attempted += 1
            run.check(job.status == "done", f"sharded cell seed {spec.seed}: {job.status}")
        return specs, max(job.finished_at for job in jobs) - t0

    def _check(self, run: Run, fleet: Fleet, specs_a: list, specs_b: list) -> None:
        """Digest the first cells and re-run a sample in-process.

        Sampled phase-A cells must match a serial in-process run bit for
        bit; each phase-B cell of the first round must match on its first
        3 reps (reps are seeded by position).
        """
        from repro.harness.executor import SerialExecutor
        from repro.harness.experiment import run_experiment

        run.check(fleet.codes == [0] * POOL_JOBS, f"service workers exited {fleet.codes}")
        stored = {}
        for label, spec in [*(("a", s) for s in specs_a[:PREFIX_A]),
                            *(("b", s) for s in specs_b)]:
            rs = fleet.store.load_for(spec)
            if run.check(rs is not None, f"no store entry for seed {spec.seed}"):
                run.digest.add(f"{label}{spec.seed - run.seed}", rs.times)
                stored[label, spec.seed] = rs
        for spec in random.Random(run.seed).sample(specs_a, min(8, len(specs_a))):
            rs = stored.get(("a", spec.seed)) or fleet.store.load_for(spec)
            serial = run_experiment(spec, executor=SerialExecutor())
            run.check(
                rs is not None and same_floats(serial.times, rs.times),
                f"service cell seed {spec.seed} differs from serial",
            )
        for spec in specs_b:
            rs = stored.get(("b", spec.seed))
            serial = run_experiment(spec.with_(reps=SHARD), executor=SerialExecutor())
            check_result(run, serial, f"serial prefix of seed {spec.seed}")
            run.check(
                rs is not None and same_floats(serial.times, rs.times[:SHARD]),
                f"sharded cell seed {spec.seed} differs from serial",
            )

    def measure(self, run: Run) -> dict[str, list[float]]:
        a_seconds = QUICK_A_S if run.quick else PHASE_A_SHARE * run.seconds
        rounds = []
        with PairCalibrator() as run.calibrator, Fleet(run.work / "service") as fleet:
            specs_a, _, latencies, lags = self._phase_a(run, fleet, a_seconds)
            for r in range(1 if run.quick else PHASE_B_ROUNDS):
                with run.timed() as timing:
                    specs, makespan = self._phase_b(run, fleet, r)
                rounds.append((specs, Timing(makespan, timing.scale)))
        self._check(run, fleet, specs_a, rounds[0][0])
        if not loadgen_valid(lags):
            run.invalid.append(
                f"load generator ran late: p99 {percentile(lags, 99):.1f} ms > {LAG_LIMIT_MS} ms"
            )
        out = samples(
            [sum(spec.reps for spec in specs) for specs, _ in rounds],
            [timing for _, timing in rounds],
            latencies,
        )
        q, tail_ms = tail(out["latency_p50_ms"])
        out[f"cell_latency_p{q}_ms"] = [tail_ms]
        out["loadgen_lag_ms"] = lags
        return out

    def traced(self, run: Run) -> Trace:
        a_seconds = QUICK_A_S if run.quick else TRACED_A_S
        trace = Trace()
        with Fleet(run.work / "plain") as fleet:
            specs_a, jobs, latencies, lags = self._phase_a(run, fleet, a_seconds)
            specs_b, _ = self._phase_b(run, fleet, 0)
            events = fleet.queue.event_counts()
        self._check(run, fleet, specs_a, specs_b)
        plain = statistics.median(ms for ms, _ in latencies)
        # Queue rows, lateness and event counts come from the untraced
        # subset; the traced one runs at a lower rate.
        done = [job for job in jobs if job.status == "done"]
        trace.values.update({
            "service.queue.wait_ms_p50": statistics.median(
                1e3 * (job.started_at - job.submitted_at) for job in done
            ),
            "service.worker.run_ms_p50": statistics.median(
                1e3 * (job.finished_at - job.started_at) for job in done
            ),
            "service.loadgen.lag_p99_ms": percentile(lags, 99),
            **{f"service.queue.events.{kind}": events.get(kind, 0) for kind in EVENT_KINDS},
        })
        with Fleet(run.work / "traced", trace=True) as fleet:
            with trace.record(), service_timers(trace.timers):
                traced_a, _, latencies, _ = self._phase_a(run, fleet, a_seconds, TRACED_RATE)
                traced_b, _ = self._phase_b(run, fleet, 0)
        run.check(fleet.codes == [0] * POOL_JOBS, f"service workers exited {fleet.codes}")
        for blob in fleet.traces():
            trace.profile.merge(blob["profile"])
            trace.timers.merge(blob["timers"])
            add_counters(trace.counters, blob["counters"])
        trace.reps = sum(spec.reps for spec in [*traced_a, *traced_b])
        trace.values["service.store.publish_ms"] = trace.timers.mean_ms(
            "ResultCache.store_entry", "SharedResultStore.store_chunk"
        )
        trace.values["trace.overhead_frac"] = statistics.median(ms for ms, _ in latencies) / plain
        return trace
