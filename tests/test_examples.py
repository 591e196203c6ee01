"""Example scripts: syntax-check always, execute when opted in.

Running every example takes minutes (they are small studies, not unit
tests); set ``REPRO_RUN_EXAMPLES=1`` to execute them end to end.  The
``repro`` imports of the examples and of the benchmark modules (which
tier-1 never imports) are resolved statically, so a renamed or deleted
API shows up here.
"""

import ast
import importlib
import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", EXAMPLES + BENCHMARKS, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_repro_imports_resolve(path):
    unresolved = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
            continue
        if node.module != "repro" and not node.module.startswith("repro."):
            continue
        try:
            module = importlib.import_module(node.module)
        except ImportError:
            unresolved.append(node.module)
            continue
        for alias in node.names:
            if hasattr(module, alias.name):
                continue
            try:
                importlib.import_module(f"{node.module}.{alias.name}")
            except ImportError:
                unresolved.append(f"{node.module}.{alias.name}")
    assert not unresolved, f"{path.name}: unresolved imports {unresolved}"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.skipif(
    os.environ.get("REPRO_RUN_EXAMPLES") != "1",
    reason="set REPRO_RUN_EXAMPLES=1 to execute the example studies",
)
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print their findings"
