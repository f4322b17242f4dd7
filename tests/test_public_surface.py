"""The package's public names: every ``__all__`` entry resolves, none
repeats, and a star import succeeds; the command line imports no SciPy."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_scipy_out():
    # numpy is the one runtime dependency pyproject.toml declares; a fresh
    # interpreter shows what importing the command line really pulls in
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlwave.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import nlwave.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
