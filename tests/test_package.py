"""Every roset module imports, and its __all__ names only what it defines.

A deletion that leaves its name behind in __all__ fails here, not in a
user's star import.
"""

import importlib
import pkgutil

import pytest

import roset

MODULES = ["roset"] + sorted(f"roset.{info.name}"
                             for info in pkgutil.iter_modules(roset.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ())
               if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    exec(f"from {name} import *", {})
