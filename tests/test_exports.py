import importlib
import inspect
import pkgutil

import pytest

import chernlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(chernlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"chernlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def public_definitions(module) -> set[str]:
    """The public functions and classes that ``module`` itself defines."""
    return {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"chernlab.{name}")
    if hasattr(module, "__all__"):
        assert sorted(module.__all__) == sorted(public_definitions(module))
