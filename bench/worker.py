"""One campaign-service worker process for the ``service-open`` workload.

Usage::

    python3 bench/worker.py --queue Q --store S --id ID [--trace OUT]

A plain :class:`repro.service.Worker` over a
:class:`~repro.harness.executor.SerialExecutor`, leasing from the queue
file ``Q`` and publishing to the store directory ``S`` until the first
SIGTERM, which drains it (the current job finishes, then it exits 0).
With ``--trace`` it also profiles itself, times the queue and store
methods it calls and records its telemetry counters, and writes all of
it to ``OUT`` as JSON on exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--queue", required=True, type=Path)
    ap.add_argument("--store", required=True, type=Path)
    ap.add_argument("--id", required=True)
    ap.add_argument("--trace", type=Path, default=None)
    args = ap.parse_args(argv)

    from bench import use_checkout_sources

    use_checkout_sources()
    from repro.harness.executor import SerialExecutor
    from repro.service import JobQueue, SharedResultStore, Worker

    worker = Worker(
        JobQueue(args.queue),
        SharedResultStore(args.store),
        worker_id=args.id,
        executor=SerialExecutor(),
    )
    worker.install_signal_handlers()
    if args.trace is None:
        worker.run()
        return 0

    from bench.layers import Trace, service_timers

    trace = Trace()
    with trace.record(), service_timers(trace.timers):
        worker.run()
    args.trace.write_text(json.dumps({
        "profile": trace.profile.to_dict(),
        "timers": dict(trace.timers.samples),
        "counters": trace.counters,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
