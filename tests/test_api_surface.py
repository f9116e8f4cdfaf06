"""Every name a rarelab module exports through __all__ exists, so a
deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import rarelab

MODULES = ["rarelab", *(f"rarelab.{m.name}" for m in pkgutil.iter_modules(rarelab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
