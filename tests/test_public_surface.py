"""The package's public names: the package exports each library module's
``__all__``, every entry resolves, none repeats, and a star import succeeds;
records that check nothing are NamedTuples and every dataclass validates;
the command line imports no SciPy."""

import dataclasses
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
HARNESS_ONLY = ["convolve_rhs_direct", "DEFAULT_BLOW_UP_THRESHOLD", "MAX_N_HALF",
                "TrajectoryStack", "run_single"]


def test_package_exports_each_library_modules_names_in_order():
    modules = [importlib.import_module(f"nlwave.{name}") for name in LIBRARY]
    assert nlwave.__all__ == ["BACKEND", "__version__"] + [
        name for module in modules for name in module.__all__]


def test_harness_only_names_are_attributes_but_not_exported():
    exported = {name for module in MODULES for name in module.__all__}
    assert exported.isdisjoint(HARNESS_ONLY)
    assert all(any(hasattr(module, name) for module in MODULES) for name in HARNESS_ONLY)


# the records that check nothing, with their fields in order
RECORDS = {
    "Trajectory": ("times", "states", "accepted_steps", "rejected_steps", "rhs_calls"),
    "ErrorRecord": ("h", "n_half", "t", "linf_error", "accepted_steps", "rejected_steps",
                    "rhs_calls", "wall_time", "fft_length", "convolution"),
    "ProfileStudy": ("trajectory", "record", "mass_initial", "mass_final"),
    "TruncationRecord": ("record", "domain_half_width", "delta", "eps_delta"),
    "SolitaryWave": ("sech_power", "speed", "x0", "amplitude", "width_rate"),
    "DecayReport": ("holds", "worst_ratio", "worst_index"),
    "Problem": ("name", "kernel", "nonlinearity", "wave", "initial_profile"),
}


def classes(predicate):
    return {name: obj for module in MODULES for name, obj in vars(module).items()
            if isinstance(obj, type) and predicate(obj)}


def test_records_are_named_tuples_with_their_fields_in_order():
    records = classes(lambda cls: issubclass(cls, tuple) and hasattr(cls, "_fields"))
    assert {name: cls._fields for name, cls in records.items()} == RECORDS
    assert {name: cls._field_defaults for name, cls in records.items()
            if cls._field_defaults} == {"Problem": {"initial_profile": None}}


def test_every_dataclass_validates():
    # a class that checks nothing is a record; a dataclass checks in __post_init__
    found = classes(dataclasses.is_dataclass)
    assert "RunConfig" in found  # which inherits StudyConfig's
    assert [name for name, cls in found.items() if not hasattr(cls, "__post_init__")] == []


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
