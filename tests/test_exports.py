"""Every name a favard module exports through ``__all__`` resolves, so a
name removed from a module cannot stay behind in an export list."""

import importlib
import pkgutil

import pytest

import favard

MODULES = ["favard"] + [f"favard.{m.name}" for m in pkgutil.iter_modules(favard.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"
