"""Every name a qhrolab module exports in __all__ exists in that module, and
every module imports on its own."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qhrolab

MODULES = ["qhrolab"] + [f"qhrolab.{m.name}" for m in pkgutil.iter_modules(qhrolab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # a fresh interpreter: in this process an import made earlier would hide a cycle
    src = str(Path(qhrolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", f"import {name}"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
