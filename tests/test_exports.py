"""Every name a qhrolab module exports in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import qhrolab

MODULES = ["qhrolab"] + [f"qhrolab.{m.name}" for m in pkgutil.iter_modules(qhrolab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
