#!/usr/bin/env python3
"""Perf-smoke gate: ``python3 -m bench run --out`` records against a baseline.

Usage::

    python3 tools/perf_gate.py BASELINE_DIR RECORD.json...

``BASELINE_DIR`` holds committed run records in the same schema, one
file per workload (``benchmarks/out/perf_baseline/``).  The gate prints
each comparison and exits 1 when

* a record has a failed operation (``failed > 0``);
* a record's seed differs from its baseline's;
* a workload of the baseline is in none of the records;
* a workload's host-normalised ``e2e.reps_per_s`` median is more than
  :data:`MAX_DROP` below the baseline's;
* a ``bench.layers.EXACT_LAYERS`` count of the baseline's traced pass
  differs from the record's or is missing from it.

A baseline without a traced pass gates throughput only.  Refresh a
baseline with one ``--seconds 60`` run of the command CI runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.layers import EXACT_LAYERS  # noqa: E402

#: the largest allowed drop of normalised reps/s below the baseline
MAX_DROP = 0.20


def by_workload(runs: list[dict]) -> dict:
    """``{workload: (seed, record)}`` over the given run records."""
    return {name: (run["seed"], record)
            for run in runs for name, record in run["workloads"].items()}


def check(baseline: list[dict], runs: list[dict]) -> list[str]:
    """Print each comparison; return every reason to fail (none: pass)."""
    want, got = by_workload(baseline), by_workload(runs)
    fails = [f"{name}: {record['failed']} failed operation(s): {record.get('failures')}"
             for name, (_, record) in got.items() if record["failed"] > 0]
    for name, (seed, base) in want.items():
        if name not in got:
            fails.append(f"{name}: no record of this baseline workload")
            continue
        run_seed, record = got[name]
        if run_seed != seed:
            fails.append(f"{name}: seed {run_seed} != baseline seed {seed}")
        if "e2e" in base:
            old = base["e2e"]["reps_per_s"]["median"]
            new = record.get("e2e", {}).get("reps_per_s", {}).get("median")
            if new is None:
                fails.append(f"{name}: no untraced pass to gate reps_per_s")
            else:
                print(f"{name}: reps_per_s {old:.4f} -> {new:.4f} ({new / old - 1:+.1%})")
                if new < (1 - MAX_DROP) * old:
                    fails.append(f"{name}: reps_per_s fell {1 - new / old:.1%}"
                                 f" (more than {MAX_DROP:.0%}) below {old:.4f}")
        for metric in EXACT_LAYERS:
            if metric in base.get("layers", {}):
                old = base["layers"][metric]["value"]
                new = record.get("layers", {}).get(metric, {}).get("value")
                print(f"{name}: {metric} {old} -> {new}")
                if new != old:
                    fails.append(f"{name}: exact count {metric} {new} != baseline {old}")
    return fails


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", type=Path, help="directory of baseline run records")
    ap.add_argument("records", type=Path, nargs="+", help="run records to gate")
    args = ap.parse_args(argv)
    baseline = [json.loads(p.read_text()) for p in sorted(args.baseline.glob("*.json"))]
    if not baseline:
        ap.error(f"no run records in {args.baseline}")
    fails = check(baseline, [json.loads(p.read_text()) for p in args.records])
    for reason in fails:
        print(f"FAIL: {reason}", file=sys.stderr)
    print("perf gate: " + ("FAILED" if fails else "passed"))
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
