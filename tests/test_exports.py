import importlib
import pkgutil

import pytest

import chernlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(chernlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"chernlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing
