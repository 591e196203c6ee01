"""Statistics, result digests, host facts, set-up timing and process clean-up.

Everything here is workload-agnostic: the workloads in
:mod:`bench.workloads` hand it samples, result vectors and process
handles.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from bench import ROOT

#: cold starts per run; ``setup_s`` is their median
SETUP_STARTS = 5
#: a cold start that takes longer than this is a hung child
SETUP_TIMEOUT_S = 60.0


def summary(samples: Sequence[float]) -> dict:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(samples: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of ``samples``."""
    values = [float(v) for v in samples]
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def tail(samples: Sequence[float]) -> tuple[int, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    Returns ``(q, value)``; ``q`` is 50 when even p90 has fewer than
    ten samples beyond it.
    """
    n = len(samples)
    for q in (99, 95, 90):
        if n * (100 - q) / 100 >= 10:
            return q, percentile(samples, q)
    return 50, statistics.median(samples)


class Digest:
    """sha256 over the float-hex of result vectors, in the order fed."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, label: str, values: Iterable[float]) -> None:
        text = ",".join(float(v).hex() for v in values)
        self._sha.update(f"{label}:{text}\n".encode())

    def add_text(self, label: str, text: str) -> None:
        self._sha.update(f"{label}:{text}\n".encode())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def same_floats(a: Iterable[float], b: Iterable[float]) -> bool:
    """Bit-identity of two result vectors (NaN payloads included)."""
    return [float(x).hex() for x in a] == [float(x).hex() for x in b]


#: calibration speed of the reference host, Mops/s.  Host-normalised
#: times are what the host would have taken at this calibration speed.
REFERENCE_MOPS = 12.0


def calibrate(n: int = 100_000) -> float:
    """Host speed in Mops/s from a fixed pure-Python loop (about 8 ms).

    The loop touches none of the program's code, so it tracks the host
    (its clock and the load other tenants put on it), not the commit.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(n):
        acc += 1.0000001 * i - acc * 0.5
    return n / (time.perf_counter() - t0) / 1e6


class Timing:
    """Wall time of one unit of work and the host speed around it."""

    __slots__ = ("wall", "scale")

    def __init__(self, wall: float = 0.0, scale: float = 1.0) -> None:
        self.wall = wall
        #: calibration speed around the unit ÷ :data:`REFERENCE_MOPS`
        self.scale = scale

    @property
    def ref(self) -> float:
        """The wall time normalised to the reference host."""
        return self.wall * self.scale


@contextlib.contextmanager
def timed(speeds: list, calibrator: Callable[[], float] = calibrate):
    """Time a block between two calibrations (appended to ``speeds``)."""
    timing = Timing()
    before = calibrator()
    t0 = time.perf_counter()
    yield timing
    timing.wall = time.perf_counter() - t0
    after = calibrator()
    speeds += [before, after]
    timing.scale = (before + after) / (2 * REFERENCE_MOPS)


def _calibrate_on_request(conn) -> None:
    """Helper-process loop of :class:`PairCalibrator`."""
    while conn.recv():
        conn.send(calibrate())
    conn.close()


class PairCalibrator:
    """Calibrate two CPUs at once, here and in a helper process.

    Workloads that keep two worker processes busy depend on the speed
    of both CPUs; each call runs the loop in both processes at the same
    time and returns the mean.  Use as a context manager: the helper
    is stopped and joined on exit.
    """

    def __enter__(self) -> "PairCalibrator":
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_calibrate_on_request, args=(child,))
        self._proc.start()
        child.close()
        return self

    def __call__(self) -> float:
        self._conn.send(True)
        here = calibrate()
        return (here + self._conn.recv()) / 2

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self._conn.send(False)
        self._proc.join(SETUP_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


def git_rev() -> str:
    """Short revision of the checkout, or ``unknown`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_rev": git_rev(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


#: seconds the processes a run leaves behind get to end before they are killed
REAP_GRACE_S = 10.0


def _become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        with contextlib.suppress(OSError):
            pids += [int(pid) for pid in task.read_text().split()]
    return pids


def reaped(cmd: list[str]) -> int:
    """Run ``cmd``; return its exit code once it and every process it
    left behind have ended.

    This process adopts the orphans of ``cmd``'s process tree (such as
    the resource tracker ``multiprocessing`` starts and never waits
    for) and waits for each; one still running :data:`REAP_GRACE_S`
    after ``cmd`` exits is killed.  SIGINT and SIGTERM are passed on
    to ``cmd``.
    """
    _become_subreaper()
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def forward(signum, _frame) -> None:
        proc.send_signal(signum)  # a no-op once it has been reaped

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    code, deadline = None, 0.0
    while True:
        try:
            pid, status = os.waitpid(-1, 0 if code is None else os.WNOHANG)
        except ChildProcessError:
            return code
        if pid == proc.pid:
            code = proc.returncode = os.waitstatus_to_exitcode(status)
            deadline = time.monotonic() + REAP_GRACE_S
        elif pid == 0:
            if time.monotonic() > deadline:
                for child in _children():
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child, signal.SIGKILL)
            time.sleep(0.01)


def stop_process(proc: subprocess.Popen, grace_s: float = 30.0) -> int:
    """Wait for ``proc`` to end, killing it after ``grace_s``."""
    try:
        return proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def cold_starts(workload: str, work: Path, starts: int, speeds: list) -> list[Timing]:
    """Time ``starts`` cold starts, from a fresh interpreter to a ready workload.

    Each start is a new ``python -m bench _setup`` process; it is timed
    until it prints ``ready`` (what "ready" means is the workload's
    :meth:`~bench.workloads.Workload.ready`), then left to tear down.
    """
    timings = []
    for i in range(starts):
        cmd = [
            sys.executable, "-m", "bench", "_setup",
            "--workload", workload, "--work", str(work / f"setup{i}"),
        ]
        proc, line = None, ""
        try:
            with timed(speeds) as timing:
                proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
                line = proc.stdout.readline() if readable else ""
        finally:
            if proc is not None:
                proc.stdout.close()
                code = stop_process(proc, SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{workload} set-up child failed (exit {code})")
        timings.append(timing)
    return timings
