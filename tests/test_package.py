from __future__ import annotations

import importlib
import pkgutil

import pytest

import hwgroups

MODULES = ["hwgroups"] + sorted(
    f"hwgroups.{info.name}" for info in pkgutil.iter_modules(hwgroups.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
