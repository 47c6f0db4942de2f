import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import metascreen
from metascreen import config

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


def test_readme_documents_every_config_key():
    # the README's configuration section names every key the parser accepts, and no other
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    tail = readme.read_text().split("### Configuration grammar", 1)[1]
    section = re.split(r"\n##+ ", tail, maxsplit=1)[0]
    heads = sorted({key.split(".")[0] for key in config._KNOWN_KEYS} | {"shape"})
    found = re.findall(rf"\b(?:{'|'.join(heads)})\.[\w.]*\w", section)
    documented = {re.sub(r"^shape\.\d+\.", "shape.N.", key) for key in found}
    shape_keys = {f"shape.N.{field}" for field in config._SHAPE_FIELDS}
    assert documented == config._KNOWN_KEYS | shape_keys
    # and every default it states is the parser's
    defaults = section.split("Remaining keys with defaults", 1)[1]
    stated = re.findall(r"`([\w.]+) = ([^`|]+)`", re.sub(r"\s+", " ", defaults))
    assert len(stated) >= 20
    reference = config.parse_config_text("")
    for key, value in stated:
        assert config.parse_config_text(f"{key} = {value}") == reference, key
