"""The package's public names: the package exports each library module's
``__all__``, every entry resolves, none repeats, and a star import succeeds;
the command line imports no SciPy."""

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


LIBRARY = ["kernels", "discrete", "system", "integrator", "analytic", "problems",
           "experiments"]

# module attributes that only perfbench/ and the tests read
HARNESS_ONLY = ["convolve_rhs_direct", "DEFAULT_BLOW_UP_THRESHOLD", "FAST_CONV_MIN_N",
                "MAX_N_HALF", "TrajectoryStack", "run_single"]


def test_package_exports_each_library_modules_names_in_order():
    modules = [importlib.import_module(f"nlwave.{name}") for name in LIBRARY]
    assert nlwave.__all__ == ["BACKEND", "__version__"] + [
        name for module in modules for name in module.__all__]


def test_harness_only_names_are_attributes_but_not_exported():
    exported = {name for module in MODULES for name in module.__all__}
    assert exported.isdisjoint(HARNESS_ONLY)
    assert all(any(hasattr(module, name) for module in MODULES) for name in HARNESS_ONLY)


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
