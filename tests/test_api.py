"""The public names: every export resolves, once, to its defining object."""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import contactrel

_MODULES = [contactrel] + [
    importlib.import_module(f"contactrel.{info.name}")
    for info in pkgutil.iter_modules(contactrel.__path__)
]
_WITH_ALL = [m for m in _MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", _WITH_ALL, ids=[m.__name__ for m in _WITH_ALL])
def test_every_listed_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_are_the_submodule_objects():
    for name in contactrel.__all__:
        if name == "__version__":
            continue
        obj = getattr(contactrel, name)
        home = sys.modules[obj.__module__]
        assert home is not contactrel, name
        assert getattr(home, name) is obj, name
        if hasattr(home, "__all__"):
            assert name in home.__all__, f"{name} missing from {home.__name__}.__all__"
