"""Package-wide contracts that no single module's tests own."""
import importlib
import pkgutil

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
