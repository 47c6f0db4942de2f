import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import metascreen
from metascreen import cli, config, optimizer

MODULES = sorted(m.name for m in pkgutil.iter_modules(metascreen.__path__))


# the only private names a module may read from another: layerpot forms the
# Laplace kernel of each row chunk from greens' closed-form factors
FOREIGN_PRIVATE_ALLOWED = {"layerpot": {"greens._zl_factors", "greens._laplace_from_factors"}}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_uses(tree):
    """Private names the module reads from elsewhere, as written (comments do not count).

    A private import, a private attribute of an imported name, and a private
    attribute that the module itself never defines or assigns.
    """
    imported, defined, uses = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if _private(alias.name):
                    uses.add(f"{getattr(node, 'module', None) or '.'}.{alias.name}")
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner in imported or node.attr not in defined:
                uses.add(f"{ast.unparse(node.value)}.{node.attr}")
    return uses


@pytest.mark.parametrize("name", MODULES)
def test_no_foreign_private_names(name):
    # a rule another module keeps private has one owner; calling it from a
    # second module is how a copy of the rule starts
    path = pathlib.Path(metascreen.__file__).parent / f"{name}.py"
    uses = _foreign_private_uses(ast.parse(path.read_text()))
    assert uses == FOREIGN_PRIVATE_ALLOWED.get(name, set())


def test_foreign_private_check_sees_calls():
    tree = ast.parse(
        "from . import fullorder\n"
        "from .greens import _kernel\n"
        "# fullorder._hidden in a comment\n"
        "fullorder._require_normal(m)\n"
        "ctx._bundle\n"
        "self._own = 1\n"
        "self._own\n"
    )
    assert _foreign_private_uses(tree) == {"fullorder._require_normal", "ctx._bundle", "greens._kernel"}


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


def _is_dense_solve(node):
    """np.linalg.solve or np.linalg.cond, however numpy's linalg is named."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("solve", "cond")
        and ast.unparse(node.value) in ("np.linalg", "numpy.linalg", "linalg")
    )


def test_one_owner_of_the_numerical_guards():
    # one residual-checked dense solve and one gap rule: np.linalg.solve and
    # np.linalg.cond appear only in layerpot.solve_density, and no function
    # takes a margin of its own next to validate_geometry's
    owned, stray, margins = 0, [], []
    for name in MODULES:
        tree = ast.parse((pathlib.Path(metascreen.__file__).parent / f"{name}.py").read_text())
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        owner = {
            id(sub)
            for func in functions
            if (name, func.name) == ("layerpot", "solve_density")
            for sub in ast.walk(func)
        }
        for node in ast.walk(tree):
            if _is_dense_solve(node) or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"):
                if id(node) in owner:
                    owned += 1
                else:
                    stray.append(f"{name}.py:{node.lineno}")
        for func in functions:
            args = func.args
            if "margin" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                margins.append(f"{name}.{func.name}")
    assert owned >= 2 and stray == []
    assert margins == []


def test_readme_documents_every_config_key():
    # the README's configuration section names every key the parser accepts, and no other
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    tail = readme.read_text().split("### Configuration grammar", 1)[1]
    section = re.split(r"\n##+ ", tail, maxsplit=1)[0]
    heads = sorted({key.split(".")[0] for key in config._KNOWN_KEYS} | {"shape"})
    found = re.findall(rf"\b(?:{'|'.join(heads)})\.[\w.]*\w", section)
    documented = {re.sub(r"^shape\.\d+\.", "shape.N.", key) for key in found}
    shape_keys = {f"shape.N.{key}" for key in config._SECTIONS["shape"]}
    assert documented == config._KNOWN_KEYS | shape_keys
    # and every default it states is the parser's
    defaults = section.split("Remaining keys with defaults", 1)[1]
    stated = re.findall(r"`([\w.]+) = ([^`|]+)`", re.sub(r"\s+", " ", defaults))
    assert len(stated) >= 20
    reference = config.parse_config_text("")
    for key, value in stated:
        assert config.parse_config_text(f"{key} = {value}") == reference, key


def test_one_table_of_objectives(tmp_path, monkeypatch):
    # the objectives OptConfig accepts and the J_<name> quantities check-grad
    # writes are the rows of optimizer.OBJECTIVES: a row added there is both
    for name in optimizer.OBJECTIVES:
        optimizer.OptConfig(objective=name)
    with pytest.raises(ValueError, match="objective"):
        optimizer.OptConfig(objective="twice")
    value, density = optimizer.OBJECTIVES["ref"]
    twice = (lambda model, cfg: 2 * value(model, cfg), lambda model, grads, cfg: 2 * density(model, grads, cfg))
    monkeypatch.setattr(optimizer, "OBJECTIVES", {**optimizer.OBJECTIVES, "twice": twice})
    assert optimizer.OptConfig(objective="twice").objective == "twice"
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("solver.n_pts = 32\noptimizer.objective = twice\n")
    assert cli.main(["--config", str(cfg_file), "--output-dir", str(tmp_path), "check-grad"]) == 0
    rows = (tmp_path / "check_grad.csv").read_text().splitlines()[2:]
    by_quantity = {}
    for row in rows:
        by_quantity.setdefault(row.split(",")[2], []).append([float(v) for v in row.split(",")[3:5]])
    assert sorted(by_quantity) == sorted(f"J_{name}" for name in optimizer.OBJECTIVES)
    # analytic and fd columns of the added row are exactly twice those of J_ref
    assert by_quantity["J_twice"] == [[2 * a, 2 * f] for a, f in by_quantity["J_ref"]]
