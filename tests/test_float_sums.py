"""Simulated times must not depend on how the interpreter's ``sum`` rounds.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier's
variant of Kahan summation); 3.10 and 3.11 add left to right.  The
golden fixtures hold left-to-right bytes, so every float sum that
reaches a simulated quantity is an explicit loop.  Here the builtin is
replaced by an emulation of the compensated one while the pool,
streaming and SYCL golden cases run: they must still match the
fixtures on any interpreter.
"""

from __future__ import annotations

import builtins
import json
import math
import random
import sys
from pathlib import Path

import pytest

from tests.golden_cases import FIXTURE_PATH, build_cases, run_case

_FIXTURES = Path(__file__).resolve().parent.parent / FIXTURE_PATH

_builtin_sum = builtins.sum


def neumaier_sum(iterable, /, start=0):
    """``sum`` as CPython >= 3.12 computes it for floats.

    Ints add exactly until the first float; from there each float is
    added with Neumaier's compensation, and the compensation is folded
    in at the end.  Other types fall back to plain ``+``.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, comp = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif isinstance(item, int):
            total += float(item)
        else:
            result = _folded(total, comp) + item
            for rest in items:
                result = result + rest
            return result
    return _folded(total, comp)


def _folded(total: float, comp: float) -> float:
    # a non-finite compensation would turn an overflowed sum into NaN
    return total + comp if comp and math.isfinite(comp) else total


def test_emulation_compensates():
    values = [1e16, 1.0, -1e16]
    assert neumaier_sum(values) == 1.0
    plain = 0.0
    for v in values:
        plain += v
    assert plain == 0.0


@pytest.mark.skipif(sys.version_info < (3, 12), reason="builtin sum is left to right")
def test_emulation_matches_builtin():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12) for _ in range(rng.randint(0, 40))]
        assert neumaier_sum(values) == _builtin_sum(values)
        assert neumaier_sum(values, 0.5) == _builtin_sum(values, 0.5)


#: the golden cases with work pools (dynamic/guided loops, SYCL),
#: babelstream's work sums and migrations onto busy CPUs
_CASES = [
    c
    for c in build_cases()
    if c["name"] in {
        "intel-schedbench-dynamic",
        "intel-schedbench-guided-sycl",
        "intel-babelstream-mem",
        "intel-montecarlo",
        "amd-schedbench-sycl",
        "amd-schedbench-tphk",
        "intel-nbody-rmhk2",
    }
]


@pytest.mark.parametrize("case", _CASES, ids=[c["name"] for c in _CASES])
def test_golden_case_independent_of_sum_rounding(monkeypatch, case):
    expected = {c["name"]: c for c in json.loads(_FIXTURES.read_text())["cases"]}[case["name"]]
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert run_case(case)["reps"] == expected["reps"]
