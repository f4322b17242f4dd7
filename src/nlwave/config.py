"""Run-configuration files: flat INI-style key-value sections.

One file describes one study and loads into a ``RunConfig``, which is the
library's ``StudyConfig`` plus the CLI's study lists, decay rate and output
directory.  One table, ``_KEYS`` with ``_EQUATION_KEYS``, names every key
the loader reads and the parser of its value.  Loading checks the INI
format and the section and key names against it, and every value with the
class that owns it, so a bad file, or a section or key the table does not
name, fails with ``ConfigError`` before anything runs or is written.  A key
that is absent keeps the default of the class it sets, and a blank value is
the same as an absent key.  Example::

    [equation]
    kind = bbm
    p = 1
    c = 1.8
    x0 = -18.0

    [grid]
    domain_half_width = 30.0
    h = 0.25

    [time]
    t_end = 20.0
    snapshots = 0, 10, 20

    [integrator]
    rel_tol = 1e-10
    abs_tol = 1e-10

    [study]
    h_list = 0.4, 0.2, 0.1, 0.05
    n_list = 200, 240, 280, 320, 360, 400

    [decay]
    rate = 0.9

    [output]
    dir = out

Custom equations replace the bbm/rosenau keys with ``kernel_file`` (two
whitespace-delimited columns, ``#`` comments), a ``nonlinearity`` term list
``power:coefficient, ...`` and an ``initial`` profile (``gaussian`` or
``sech`` with ``initial_amplitude``, ``initial_width`` and ``initial_center``
keys).  The decay envelope's scale comes from the kernel's tail and its
constant from the t=0 state.
"""

import configparser
import inspect
import os
from dataclasses import dataclass, replace

import numpy as np

from .analytic import DecayEnvelope
from .discrete import _whole
from .experiments import IntegratorConfig, StudyConfig
from .kernels import kernel_from_file
from .problems import Problem, bbm_problem, custom_problem, rosenau_problem
from .system import Nonlinearity, build_system

__all__ = ["ConfigError", "RunConfig", "load_run_config"]


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig(StudyConfig):
    """A study configuration plus the CLI's study lists, decay rate and output."""

    output_dir: str = "nlwave-out"
    h_list: tuple[float, ...] = ()
    n_list: tuple[int, ...] = ()
    decay_rate: float | None = None

    def study(self) -> StudyConfig:
        """This config itself; ``perfbench/setup_probe.py`` still calls it."""
        return self


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(s) for s in raw.split(",") if s.strip())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(_whole(float(s), "N") for s in raw.split(",") if s.strip())


def _nonlinearity(raw: str) -> Nonlinearity:
    terms = []
    for piece in filter(None, (s.strip() for s in raw.split(","))):
        try:
            power, coeff = piece.split(":")
            terms.append((int(power), float(coeff)))
        except ValueError as exc:
            raise ValueError(
                f"bad term {piece!r}; expected power:coefficient") from exc
    return Nonlinearity(tuple(terms))


def _initial_profile(initial="gaussian", initial_amplitude=1.0,
                     initial_width=1.0, initial_center=0.0):
    """Gaussian or sech bump used as custom initial data."""
    if initial not in ("gaussian", "sech"):
        raise ConfigError(f"unknown initial profile kind {initial!r}")
    for key, value in dict(initial_amplitude=initial_amplitude, initial_width=initial_width,
                           initial_center=initial_center).items():
        if not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if not initial_width > 0:
        raise ConfigError("initial profile width must be positive")

    def profile(x):
        z = (np.asarray(x, dtype=float) - initial_center) / initial_width
        if initial == "gaussian":
            return initial_amplitude * np.exp(-z * z)
        return initial_amplitude / np.cosh(z)
    return profile


def _custom_problem(base_dir, kernel_file, nonlinearity, **initial) -> Problem:
    path = os.path.join(base_dir, kernel_file)
    try:
        kernel = kernel_from_file(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad kernel file {path}: {exc}") from exc
    return custom_problem(kernel, nonlinearity, _initial_profile(**initial))


# section -> key -> parser.  Any other name is refused, so a misspelt key
# cannot leave a run on the default it meant to replace.  The kind has no
# parser: it is read first, since it selects the further [equation] keys.
_KEYS = {
    "equation": {"kind": None, "blow_up_threshold": float},
    "grid": {"domain_half_width": float, "h": float},
    "time": {"t_end": float, "snapshots": _float_list},
    "integrator": {"rel_tol": float, "abs_tol": float},
    "study": {"h_list": _float_list, "n_list": _int_list},
    "decay": {"rate": float},
    "output": {"dir": str},
}
# The further [equation] keys of each kind: its problem factory's parameters.
_EQUATION_KEYS = {
    "bbm": {"p": int, "c": float, "x0": float},
    "rosenau": {"x0": float},
    "custom": {"kernel_file": str, "nonlinearity": _nonlinearity,
               "initial": str.lower, "initial_amplitude": float,
               "initial_width": float, "initial_center": float},
}
# The RunConfig fields of the keys named otherwise.
_FIELDS = {"snapshots": "snapshot_times", "rate": "decay_rate",
           "dir": "output_dir"}


def _read(parser, name, table) -> dict:
    """``{field: value}`` of each key that [name] sets to a non-blank value;
    refuses a key ``table`` does not name."""
    values = {}
    for key, raw in (parser[name] if parser.has_section(name) else {}).items():
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in [{name}]")
        if raw and table[key]:  # configparser strips values
            try:
                values[_FIELDS.get(key, key)] = table[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key} in [{name}]: {exc}") from exc
    return values


def _call(owner, *args, **values):
    """``owner(*args, **values)``; a parameter without a default that no key
    sets is a ``ConfigError``."""
    try:
        inspect.signature(owner).bind(*args, **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return owner(*args, **values)


def load_run_config(path: str) -> RunConfig:
    """Parse a configuration file and check every value in it.

    Checks the INI format and the section and key names against ``_KEYS`` and
    ``_EQUATION_KEYS``; each value is checked by the class that owns it (``Grid``,
    ``StudyConfig``, ``IntegratorConfig``, ``DecayEnvelope``, ``TruncatedSystem`` for the
    blow-up threshold and each h, in config order, naming a refused h), and their
    ``ValueError`` becomes a ``ConfigError``.
    """
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
        for name in ("equation", "grid", "time"):
            if not parser.has_section(name):
                raise ConfigError(f"missing [{name}] section")
        for name in parser.sections():
            if name not in _KEYS:
                raise ConfigError(f"unknown section [{name}]")
        kind = parser["equation"].get("kind", "").lower()
        if kind not in _EQUATION_KEYS:
            raise ConfigError(
                f"equation kind must be bbm, rosenau or custom, got {kind!r}")
        tables = {**_KEYS, "equation": {**_KEYS["equation"], **_EQUATION_KEYS[kind]}}
        values = {name: _read(parser, name, table) for name, table in tables.items()}
        keys = {key: values["equation"].pop(key)
                for key in _EQUATION_KEYS[kind] if key in values["equation"]}
        if kind == "custom":
            problem = _call(_custom_problem,
                            os.path.dirname(os.path.abspath(path)), **keys)
        else:
            problem = {"bbm": bbm_problem, "rosenau": rosenau_problem}[kind](**keys)
        integrator = IntegratorConfig(**values.pop("integrator"))
        # every other key sets a RunConfig field
        fields = {k: v for section in values.values() for k, v in section.items()}
        cfg = _call(RunConfig, problem=problem, integrator=integrator, **fields)
        if cfg.decay_rate is not None:
            DecayEnvelope(rate=cfg.decay_rate)
        grids = (cfg.grid(), *cfg.sweep_grids(cfg.h_list, cfg.n_list))
        for grid in dict.fromkeys(replace(g, n_half=1) for g in grids):  # one 3-node system per h
            try:
                build_system(problem.kernel, grid, problem.nonlinearity,
                             blow_up_threshold=cfg.blow_up_threshold)
            except ValueError as exc:
                raise ConfigError(f"h = {grid.h}: {exc}") from exc
    except ConfigError:
        raise
    except (ValueError, OverflowError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
