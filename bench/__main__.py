"""Command line of the repository benchmark.

::

    python3 -m bench run [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1 | --traced] [--quick] [--out PATH]
    python3 -m bench compare --parent P.json... --change C.json...

``run`` without ``--workload`` runs every workload, each untraced and
then traced, and prints every metric.  With ``--workload`` it runs one
workload; ``--trace 0`` runs only the untraced pass (end-to-end
metrics), ``--trace 1`` (or ``--traced``) only the traced pass
(per-layer metrics).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output checked out.

``python3 -m bench run`` does its work in a child process (``_run``)
and exits only when that child and every process it left behind have
ended.  ``_setup`` is internal: one cold start, timed by the parent run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from bench import ROOT, WORK, use_checkout_sources

#: the seed ``bench/expected_digests.json`` is for, and the default seed
DEFAULT_SEED = 2025
#: default measured seconds per workload (``run_seconds`` in BENCHMARK.json)
DEFAULT_SECONDS = 20.0
EXPECTED_PATH = ROOT / "bench" / "expected_digests.json"


def workloads() -> dict:
    from bench.service import ServiceOpen
    from bench.workloads import PipelineNbody, SimMinife, SweepPool2

    return {w.name: w for w in (SimMinife(), PipelineNbody(), SweepPool2(), ServiceOpen())}


def run_workload(workload, seed: int, seconds: float, quick: bool, passes: tuple) -> dict:
    """Run the requested passes of one workload; returns its record."""
    from bench.layers import LAYER_UNITS
    from bench.measure import SETUP_STARTS, calibrate, cold_starts, peak_rss_mb, summary
    from bench.workloads import E2E_UNITS, Run

    work = WORK / f"{os.getpid()}-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    record: dict = {"attempted": 0, "failures": [], "invalid": [], "digests": [], "speeds": []}

    def new_run(name: str) -> Run:
        run = Run(seed, seconds, quick, work / name)
        run.work.mkdir(parents=True)
        run.speeds.append(calibrate())
        return run

    def absorb(run: Run) -> None:
        run.speeds.append(calibrate())
        record["attempted"] += run.attempted
        record["failures"] += run.failures
        record["invalid"] += run.invalid
        record["digests"].append(run.digest.hexdigest())
        record["speeds"] += run.speeds

    try:
        if "e2e" in passes:
            run = new_run("e2e")
            samples = workload.measure(run)
            samples["peak_rss_mb"] = [peak_rss_mb()]
            starts = cold_starts(workload.name, work, 2 if quick else SETUP_STARTS, run.speeds)
            samples["setup_s"] = [t.ref for t in starts]
            samples["raw_setup_s"] = [t.wall for t in starts]
            absorb(run)
            record["e2e"] = {
                name: {"unit": unit, **summary(samples.pop(name))}
                for name, unit in E2E_UNITS.items()
            }
            record["extra"] = {name: summary(values) for name, values in samples.items()}
        if "traced" in passes:
            run = new_run("traced")
            trace = workload.traced(run)
            absorb(run)
            trace.values["host.calib_mops"] = statistics.median(run.speeds)
            trace.values["host.nproc"] = os.cpu_count()
            record["layers"] = {
                name: {"unit": LAYER_UNITS[name], "value": value}
                for name, value in trace.assemble().items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    record["calib_mops"] = statistics.median(record.pop("speeds"))
    digest = record["digests"][0]
    if len(set(record["digests"])) > 1:
        record["failures"].append("the untraced and traced passes digested different results")
    expected = json.loads(EXPECTED_PATH.read_text())
    want = expected["digests"].get(workload.name)
    if seed == expected["seed"] and want != digest:
        record["failures"].append(f"digest {digest} != expected {want} for seed {seed}")
    record["digest"] = digest
    record["failed"] = len(record["failures"])
    return record


def report(name: str, record: dict) -> None:
    """Print one workload's metrics, by name and with their units."""
    print(f"== {name}: {record['attempted']} operations, {record['failed']} failed, "
          f"digest {record['digest'][:16]}, host {record['calib_mops']:.2f} Mops/s")
    for metric, s in record.get("e2e", {}).items():
        print(f"  {metric:<24} {s['median']:>12.4f} {s['unit']:<8} "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    for metric, s in record.get("extra", {}).items():
        print(f"  ({metric:<22} {s['median']:>12.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']})")
    for metric, m in record.get("layers", {}).items():
        print(f"    {metric:<44} {m['value']:>14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for reason in record.get("invalid", ()):
        print(f"  INVALID (left out by compare): {reason}")


def result_line(records: dict) -> dict:
    """The last-line JSON object; metric names get a workload prefix
    when more than one workload ran."""
    metrics = {}
    for name, record in records.items():
        prefix = f"{name}." if len(records) > 1 else ""
        for metric, s in record.get("e2e", {}).items():
            metrics[prefix + metric] = {"value": s["median"], "unit": s["unit"]}
        for metric, m in record.get("layers", {}).items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records.values())
    return {
        "correct": failed == 0,
        "attempted": max(1, sum(r["attempted"] for r in records.values())),
        "failed": failed,
        "metrics": metrics,
    }


def run_children(args, names: list[str]) -> dict:
    """Run each workload in its own interpreter, so per-process state
    (peak RSS, context caches, telemetry) never carries over; returns
    their records."""
    records = {}
    WORK.mkdir(exist_ok=True)
    for name in names:
        out = WORK / f"{os.getpid()}-{name}.json"
        cmd = [sys.executable, "-m", "bench", "run", "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            held = None  # the child's own result line is not repeated
            for line in proc.stdout:
                if held is not None:
                    print(held, end="", flush=True)
                held = line
        try:
            records[name] = json.loads(out.read_text())["workloads"][name]
        except (OSError, ValueError, KeyError):
            records[name] = {
                "attempted": 1, "failed": 1, "digest": "", "calib_mops": 0.0,
                "failures": [f"{name} exited {proc.returncode} without a record"],
            }
        finally:
            out.unlink(missing_ok=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    return records


def cmd_run(args) -> int:
    from bench.measure import host_facts

    table = workloads()
    if args.workload is not None and args.workload not in table:
        print(f"bench: unknown workload {args.workload!r} (have {sorted(table)})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if args.traced:
        args.trace = 1
    if args.workload is None:
        records = run_children(args, list(table))
    else:
        passes = {None: ("e2e", "traced"), 0: ("e2e",), 1: ("traced",)}[args.trace]
        record = run_workload(table[args.workload], args.seed, args.seconds, args.quick, passes)
        report(args.workload, record)
        records = {args.workload: record}
    if args.out is not None:
        calib = [r["calib_mops"] for r in records.values()]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "host": {**host_facts(), "calib_mops": statistics.median(calib)},
            "workloads": records,
        }, indent=1) + "\n")
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_setup(args) -> int:
    args.work.mkdir(parents=True, exist_ok=True)
    with workloads()[args.workload].ready(args.work):
        print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", aliases=["_run"], help="run workloads and print their metrics")
    run.add_argument("--workload", default=None, help="one workload (default: all)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                     help="measured seconds per workload")
    run.add_argument("--trace", type=int, choices=(0, 1), default=None,
                     help="0: untraced pass only, 1: traced pass only (default: both)")
    run.add_argument("--traced", action="store_true", help="same as --trace 1")
    run.add_argument("--quick", action="store_true",
                     help="minimum units per workload, for tests")
    run.add_argument("--out", type=Path, default=None, help="write the run record here")
    compare = sub.add_parser("compare", help="judge change runs against parent runs")
    compare.add_argument("--parent", type=Path, nargs="+", required=True)
    compare.add_argument("--change", type=Path, nargs="+", required=True)
    setup = sub.add_parser("_setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)

    if args.command == "compare":
        from bench.compare import compare

        return compare(args.parent, args.change)
    try:
        use_checkout_sources()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return cmd_setup(args) if args.command == "_setup" else cmd_run(args)


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"]:
        from bench.measure import reaped

        sys.exit(reaped([sys.executable, "-m", "bench", "_run", *sys.argv[2:]]))
    sys.exit(main())
