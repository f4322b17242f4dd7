"""The package's public names: every ``__all__`` entry resolves, none
repeats, and a star import succeeds."""

import importlib
import pkgutil

import pytest

import nlwave

MODULES = [nlwave] + [importlib.import_module(f"nlwave.{info.name}")
                      for info in pkgutil.iter_modules(nlwave.__path__)
                      if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from nlwave import *", namespace)
    assert set(nlwave.__all__) <= set(namespace)
