"""Public API: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import mvskin

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(mvskin.__path__) if m.name != "__main__")


def test_package_exports_resolve():
    assert [name for name in mvskin.__all__ if not hasattr(mvskin, name)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"mvskin.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []
