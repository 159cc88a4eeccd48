"""Every name a lanton submodule exports in ``__all__`` exists.

The package itself exports nothing but ``__version__``: callers import from
the submodules. A name removed from a module but left in its ``__all__``
breaks ``from lanton.<module> import *``; this test fails on it instead.
"""

import importlib
import pkgutil

import pytest

import lanton

_SUBMODULES = sorted(f"lanton.{m.name}" for m in pkgutil.iter_modules(lanton.__path__))


def test_submodules_found():
    assert "lanton.harness" in _SUBMODULES and "lanton.cli" in _SUBMODULES


@pytest.mark.parametrize("module", _SUBMODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
