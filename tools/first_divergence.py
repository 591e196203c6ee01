#!/usr/bin/env python3
"""Find the first engine dispatch where two revisions of the simulator differ.

Usage::

    python3 tools/first_divergence.py REV_A REV_B CASE
    python3 tools/first_divergence.py REV_A REV_B all

Checks out each revision in a temporary ``git worktree``, runs the named
golden case (``tests/golden_cases.py``; ``all`` runs every one) in a
fresh interpreter on that revision's ``src/``, and logs every callback
the engine dispatches as ``(time.hex(), seq, callback __qualname__,
tid-or-None)``: the tid is that of a task passed as the callback's first
argument.  Prints ``CASE: identical (N events)`` when both logs agree,
else the index of the first dispatch that differs and both sides of it.
Exits 1 when any case differs.

The golden fixtures say *that* a change moved a result; this says
*where*: the first event whose time, order or target changed.  It is
the order recording of a deterministic replay, kept test-side: the
logging engine is a subclass installed into ``repro.sim.machine`` in the
child interpreter, so the program itself pays nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


def _child_env() -> dict:
    """The environment minus ``PYTHONPATH``: a child imports only the
    ``repro`` it is pointed at."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def recording_engine(base: type, log: list) -> type:
    """A subclass of the engine class ``base`` that appends one line to
    ``log`` per dispatched callback and keeps a running hash of them."""

    class RecordingEngine(base):
        digest = hashlib.sha256()

        def schedule(self, time, fn, *args):
            return self._wrap(super().schedule(time, fn, *args))

        def stage(self, time, fn, *args):
            return self._wrap(super().stage(time, fn, *args))

        def _wrap(self, handle):
            # re-timings keep the handle, so wrapping at creation covers them
            fn = handle.fn
            name = getattr(fn, "__qualname__", type(fn).__qualname__)

            def dispatch(*args):
                tid = getattr(args[0], "tid", None) if args else None
                line = f"{self.now.hex()} {handle.seq} {name} {tid}"
                log.append(line)
                RecordingEngine.digest.update(line.encode() + b"\n")
                return fn(*args)

            handle.fn = dispatch
            return handle

    return RecordingEngine


def _record_here(root: Path, src: Path, case: str, out: Path) -> None:
    """Child side: run ``case`` on ``src`` with the recording engine and
    write the log to ``out`` as JSON."""
    sys.path[:0] = [str(src), str(root)]
    from repro.sim import engine as engine_mod
    from repro.sim import machine as machine_mod
    from tests.golden_cases import build_cases, run_case

    log: list[str] = []
    cls = recording_engine(engine_mod.Engine, log)
    machine_mod.Engine = cls
    error = None
    try:
        (spec,) = [c for c in build_cases() if c["name"] == case]
        run_case(spec)
    except Exception as exc:  # the log up to the failure is the answer
        error = f"{type(exc).__name__}: {exc}"
    out.write_text(json.dumps({"log": log, "digest": cls.digest.hexdigest(), "error": error}))


def record(root: Path, src: Path, case: str) -> dict:
    """Run one golden case in a fresh interpreter: the golden matrix of
    ``root/tests`` on the ``repro`` package in ``src``.  Returns
    ``{"log": [line...], "digest": hex, "error": str or None}``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "log.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--record", case,
             "--root", str(root), "--src", str(src), "--out", str(out)],
            check=True, env=_child_env(),
        )
        return json.loads(out.read_text())


def first_difference(a: list[str], b: list[str]) -> Optional[int]:
    """Index of the first entry where ``a`` and ``b`` differ (one ending
    early counts), or ``None`` when they are equal."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def compare(case: str, a: dict, b: dict) -> tuple[bool, str]:
    """``(identical, report)`` for two recordings of one case."""
    la, lb = a["log"], b["log"]
    if a["digest"] == b["digest"] and a["error"] == b["error"]:
        return True, f"{case}: identical ({len(la)} events)"
    i = first_difference(la, lb)
    if i is None:
        lines = [f"{case}: same {len(la)} dispatches, different outcome"]
    else:
        lines = [f"{case}: first divergence at dispatch {i} of {len(la)} / {len(lb)}",
                 f"  A: {la[i] if i < len(la) else '<end>'}",
                 f"  B: {lb[i] if i < len(lb) else '<end>'}"]
    for side, rec in (("A", a), ("B", b)):
        if rec["error"]:
            lines.append(f"  {side} failed: {rec['error']}")
    return False, "\n".join(lines)


def case_names(root: Path) -> list[str]:
    """Every golden case of the matrix in ``root/tests``, in order."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "from tests.golden_cases import build_cases\n"
            "print('\\n'.join(c['name'] for c in build_cases()))")
    out = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(root)],
                         check=True, env=_child_env(), capture_output=True, text=True).stdout
    return out.split()


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev_a", nargs="?", help="first revision (any git revision)")
    ap.add_argument("rev_b", nargs="?", help="second revision")
    ap.add_argument("case", nargs="?", help="golden case name, or 'all'")
    ap.add_argument("--record", metavar="CASE", help=argparse.SUPPRESS)
    ap.add_argument("--root", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.record:
        _record_here(args.root, args.src, args.record, args.out)
        return 0
    if args.case is None:
        ap.error("REV_A, REV_B and CASE are required")
    with tempfile.TemporaryDirectory(prefix="first-divergence-") as tmp:
        trees = []
        try:
            for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
                tree = Path(tmp) / side
                _git("worktree", "add", "--detach", str(tree), _git("rev-parse", rev))
                trees.append(tree)
            cases = case_names(trees[0]) if args.case == "all" else [args.case]
            differing = 0
            for case in cases:
                same, report = compare(case, *(record(t, t / "src", case) for t in trees))
                differing += not same
                print(report, flush=True)
        finally:
            for tree in trees:
                _git("worktree", "remove", "--force", str(tree))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
