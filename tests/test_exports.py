"""Every name a module exports in __all__ exists in it."""

import importlib
import pkgutil

import pytest

import influence_lab

MODULES = ["influence_lab"] + [f"influence_lab.{m.name}" for m in pkgutil.iter_modules(influence_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", []) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names {missing}"
