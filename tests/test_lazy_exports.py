"""Tests for the package ``__init__``s that import their re-exports on use."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    missing = [name for name in module.__all__ if name not in listed]
    assert missing == []
    for name in module.__all__:
        assert getattr(module, name) is not None, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(repro.cost, "no_such_name")


def test_memo_resets_are_bound_eagerly():
    # perfbench's ``layers.clear_memos`` finds these two resets with
    # ``inspect.getattr_static``, which never calls a module __getattr__:
    # a deferred reset would be skipped, and every pass after the first
    # would run warm.  A fresh interpreter, so no earlier lookup has
    # bound them already.
    script = (
        "import inspect, json\n"
        "import repro.core, repro.cost\n"
        "found = [inspect.getattr_static(repro.cost, 'clear_cache', None),\n"
        "         inspect.getattr_static(repro.core, 'clear_plan_cache',\n"
        "                                None)]\n"
        "print(json.dumps([f'{f.__module__}.{f.__name__}' if f else None\n"
        "                  for f in found]))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=SRC,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout) == ["repro.cost.model.clear_cache",
                                      "repro.core.plancache.clear_plan_cache"]
