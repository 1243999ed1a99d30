"""The public names: every ``__all__`` entry of the package and of its modules
resolves, and none is listed twice."""

import importlib
import pkgutil
from collections import Counter

import pytest

import modeheat

MODULES = ["modeheat"] + [f"modeheat.{m.name}" for m in pkgutil.iter_modules(modeheat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert [n for n, count in Counter(exported).items() if count > 1] == []

