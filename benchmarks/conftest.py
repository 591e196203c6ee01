"""Benchmark-suite configuration.

Repetition counts default to a scaled-down protocol (the paper used
1000 baseline / 200 injected runs *per cell*; see EXPERIMENTS.md) so the
whole suite regenerates every table and figure in tens of minutes.
Raise them via environment variables for closer-to-paper statistics:

    REPRO_BASELINE_REPS=200 REPRO_INJECT_REPS=50 pytest benchmarks/

Results are cached in ``.repro_cache`` — an interrupted suite resumes,
and Table 6 reuses the cells of Tables 3–5 at zero cost.  Rendered
tables are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

# Scaled-down defaults, set before repro imports resolve them.
os.environ.setdefault("REPRO_BASELINE_REPS", "20")
os.environ.setdefault("REPRO_INJECT_REPS", "10")
os.environ.setdefault("REPRO_COLLECT_REPS", "40")

from repro.harness import campaigns  # noqa: E402

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def settings():
    """Shared campaign settings: one seed, one on-disk cache."""
    return campaigns.CampaignSettings(seed=2025, collect_batches=3)


@pytest.fixture(scope="session")
def publish():
    """Write a rendered artefact to benchmarks/out/ and echo it."""

    def _publish(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _publish


def once(benchmark, fn):
    """Run an expensive campaign exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
