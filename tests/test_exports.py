"""Every name a module exports is defined: a deletion leaves no dangling export."""
import importlib
import pkgutil

import pytest

import qdtp

MODULES = ["qdtp"] + [
    f"qdtp.{info.name}" for info in pkgutil.iter_modules(qdtp.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
