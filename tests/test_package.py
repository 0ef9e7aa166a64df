"""Package-wide contracts that no single module's tests own."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import driftsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(driftsim.__path__))


def test_every_module_is_found():
    assert "autodiff" in MODULES and "simulator" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"driftsim.{name}")
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"driftsim.{name}.__all__ lists undefined {missing}"


def _private_reads(name: str) -> list:
    """Each underscore name of another driftsim module that module `name`
    reads, as "line: module.name": a `from` import of it, or an attribute
    of an imported driftsim module. Dunder names are not private."""
    source = Path(next(iter(driftsim.__path__))) / f"{name}.py"
    tree = ast.parse(source.read_text(), filename=str(source))
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1:
                owner = node.module
            elif parts[0] == "driftsim":
                owner = ".".join(parts[1:]) or None
            else:
                continue
            for alias in node.names:
                if owner is None:  # `from . import module`
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.append(f"{node.lineno}: {owner}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            reads.append(f"{node.lineno}: {modules[node.value.id]}.{node.attr}")
    return reads


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_a_private_name_of_another(name):
    # what one module calls of another is public there, so a module's
    # underscore names can change without reading the rest of the package
    assert not _private_reads(name), f"driftsim.{name} reads {_private_reads(name)}"
