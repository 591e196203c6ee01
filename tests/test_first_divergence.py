"""The first-divergence locator of ``tools/first_divergence.py``."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "first_divergence.py"
_spec = importlib.util.spec_from_file_location("first_divergence", _PATH)
fd = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fd)

#: a golden case with about 750 dispatches per rep
CASE = "intel-babelstream-mem"


@pytest.fixture(scope="module")
def reference():
    return fd.record(ROOT, ROOT / "src", CASE)


def test_same_source_is_identical(reference):
    again = fd.record(ROOT, ROOT / "src", CASE)
    assert reference["error"] is None and len(reference["log"]) > 1000
    same, report = fd.compare(CASE, reference, again)
    assert same and report == f"{CASE}: identical ({len(reference['log'])} events)"


def test_log_names_time_seq_callback_and_task(reference):
    fields = [line.split() for line in reference["log"]]
    assert float.fromhex(fields[0][0]) > 0.0 and int(fields[0][1]) >= 0
    assert fields[0][2:] == ["TeamRuntime._advance", "None"]
    assert any(f[2] == "Scheduler._task_done" and f[3] != "None" for f in fields)


@pytest.mark.parametrize("k", [0, 300])
def test_perturbed_engine_reports_the_right_index(tmp_path, reference, k):
    # On a copy of the sources: the engine's k-th dispatch (0-based, of
    # the first rep) runs 1 ulp late, and nothing before it changes.
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    engine_py = src / "repro" / "sim" / "engine.py"
    code, n = re.subn(
        r"^(\s+)fn\(\*args\)$",
        rf"\1if self.events_executed + executed == {k}:"
        rf" self.now = math.nextafter(self.now, math.inf)\n\1fn(*args)",
        engine_py.read_text(), flags=re.M,
    )
    assert n >= 1
    engine_py.write_text(code)
    perturbed = fd.record(ROOT, src, CASE)
    same, report = fd.compare(CASE, reference, perturbed)
    assert not same
    assert report.splitlines()[0].startswith(f"{CASE}: first divergence at dispatch {k} of ")
    a, b = reference["log"][k].split(), perturbed["log"][k].split()
    assert a[1:] == b[1:] and float.fromhex(b[0]) > float.fromhex(a[0])
    assert reference["log"][:k] == perturbed["log"][:k]


def test_first_difference():
    assert fd.first_difference(["a", "b"], ["a", "b"]) is None
    assert fd.first_difference(["a", "b"], ["a", "c"]) == 1
    assert fd.first_difference(["a"], ["a", "b"]) == 1
    assert fd.first_difference([], ["a"]) == 0


def test_cli_on_one_revision_twice():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    out = subprocess.run([sys.executable, str(_PATH), "HEAD", "HEAD", CASE],
                         capture_output=True, text=True, check=True).stdout
    assert re.fullmatch(rf"{CASE}: identical \(\d+ events\)\n", out)
