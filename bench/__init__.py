"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

``python3 -m bench run`` drives the simulator, the noise-injection
pipeline, the harness's pooled sweep path and the campaign service from
outside, through their public entry points, and prints every metric
named in ``BENCHMARK.json``.  ``python3 -m bench compare`` judges two
sets of run records.  ``bench/README.md`` is the glossary.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout the benchmark lives in (and measures)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working space for queues, stores and caches; removed after each run
WORK = ROOT / ".bench_work"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and from nowhere else.

    Raises :class:`ImportError` when ``src/repro`` is missing or an
    installed copy shadows it, so the benchmark never measures code
    other than the checkout's.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro was imported from {origin}, not from {SRC}")
