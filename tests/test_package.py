import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_scipy():
    # the runtime needs numpy alone; scipy would add its import time to every CLI process
    probe = "import sys, metascreen.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metascreen.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    assert out.stdout.strip() == "[]"
