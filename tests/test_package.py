import importlib
import pkgutil

import pytest

import metascreen

MODULES = sorted(m.name for m in pkgutil.iter_modules(metascreen.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # every exported name must exist, so deleting a function cannot leave
    # a dangling entry in __all__
    module = importlib.import_module(f"metascreen.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
