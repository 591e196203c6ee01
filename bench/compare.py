"""``python3 -m bench compare``: judge change runs against parent runs.

Each argument is a run record written by ``bench run --out``.  Records
are paired in the order given (run them alternating which side goes
first).  Per workload and end-to-end metric, with the metric's
``better`` direction and ``bound`` from ``BENCHMARK.json``:

* **gain** — at least :data:`MIN_PAIRS` pairs, the change wins at least
  :data:`WIN_SHARE` of them (ties count for neither side), and the
  medians differ by more than the parent's own interquartile range;
* **unresolved** — either side's spread (IQR / median) exceeds the
  bound, unless every change run reads better than every parent run;
* **regression** — the change's median is worse than the parent's by
  more than the bound;
* **within bound** — none of the above.

A pair with a run marked invalid (its load generator fell behind) is
left out.
Every ratio is printed with its base.  Deterministic per-layer counts
are compared exactly.  The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Sequence

from bench import ROOT

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> tuple[str, int]:
    """The rule in the module docstring, for one metric on one
    workload; returns the verdict and the number of pairs won."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = _quartiles(parent)
    c_q1, c_med, c_q3 = _quartiles(change)
    gap = sign * (c_med - p_med)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > p_q3 - p_q1:
        return "gain", wins
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better in every run", wins
        return "unresolved", wins
    if -gap > bound * abs(p_med):
        return "regression", wins
    return "within bound", wins


def _pairs(parents: list[dict], changes: list[dict], workload: str, metric: str):
    """Parent and change values of the valid run pairs, in the order given."""
    p, c = [], []
    for a, b in zip(parents, changes):
        a, b = a["workloads"].get(workload, {}), b["workloads"].get(workload, {})
        if "e2e" in a and "e2e" in b and not a.get("invalid") and not b.get("invalid"):
            p.append(a["e2e"][metric]["median"])
            c.append(b["e2e"][metric]["median"])
    return p, c


def _exact_counts(records: list[dict], workload: str) -> dict[str, set]:
    from bench.layers import EXACT_LAYERS

    out: dict[str, set] = {}
    for r in records:
        layers = r["workloads"].get(workload, {}).get("layers", {})
        for name in EXACT_LAYERS:
            if name in layers:
                out.setdefault(name, set()).add(layers[name]["value"])
    return out


def compare(parent_paths: Sequence[Path], change_paths: Sequence[Path]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parents = [json.loads(Path(p).read_text()) for p in parent_paths]
    changes = [json.loads(Path(p).read_text()) for p in change_paths]
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    for workload in workloads:
        n_pairs = len(_pairs(parents, changes, workload, spec["end_to_end"][0]["name"])[0])
        if n_pairs == 0:
            continue
        rows = []
        for metric in spec["end_to_end"]:
            p, c = _pairs(parents, changes, workload, metric["name"])
            result, wins = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regression"
            p_q1, p_med, p_q3 = _quartiles(p)
            c_q1, c_med, c_q3 = _quartiles(c)
            rows.append(
                f"  {metric['name']:<15} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]"
                f"  change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}] {metric['unit']}"
                f"  ratio {c_med / p_med:.3f} of parent {p_med:.4g}"
                f"  won {wins}/{n_pairs}  bound {metric['bound']:.0%}: {result}"
            )
        note = "" if n_pairs >= MIN_PAIRS else f"; fewer than {MIN_PAIRS} pairs, no gain can be claimed"
        print(f"{workload}: {n_pairs} pairs{note}")
        print("\n".join(rows))
        p_counts, c_counts = _exact_counts(parents, workload), _exact_counts(changes, workload)
        for name in sorted(set(p_counts) & set(c_counts)):
            a, b = p_counts[name], c_counts[name]
            if len(a) > 1 or len(b) > 1:
                print(f"  count {name} did not repeat exactly: parent {sorted(a)}, change {sorted(b)}")
            elif a != b:
                print(f"  count {name}: parent {a.pop():.6g} -> change {b.pop():.6g}")
    return 1 if regressed else 0
