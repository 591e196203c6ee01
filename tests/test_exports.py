"""Every name a ``repro`` module exports in ``__all__`` must exist.

A stale ``__all__`` entry breaks ``from repro.x import *`` and misleads
readers of the public surface, and nothing else would notice it.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    m.name
    for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith("__main__")  # importing it runs the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    assert [e for e in exported if not hasattr(module, e)] == []
