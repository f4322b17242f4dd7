"""Run-configuration files: flat INI-style key-value sections.

One file describes one study and loads into a ``RunConfig``, which is the
library's ``StudyConfig`` plus the CLI's study lists, decay rate and output
directory.  Loading checks the INI format and the section and key names
here, and every value with the class that owns it, so a bad file, or a
section or key the loader does not read, fails with ``ConfigError`` before
anything runs or is written.  Example::

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
``sech`` with amplitude/width/center keys).  ``_KEYS`` and
``_EQUATION_KEYS`` name every key read.  The decay envelope's scale comes
from the equation and its constant from the t=0 state.
"""

import configparser
import os
from dataclasses import dataclass

import numpy as np

from .analytic import DecayEnvelope
from .experiments import IntegratorConfig, StudyConfig
from .kernels import kernel_from_file
from .problems import Problem, bbm_problem, custom_problem, rosenau_problem
from .system import Nonlinearity

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
    items = [s.strip() for s in raw.split(",") if s.strip()]
    try:
        return tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad number list: {raw!r}") from exc


def _int_list(raw: str) -> tuple[int, ...]:
    values = _float_list(raw)
    if any(v != int(v) for v in values):
        raise ConfigError(f"expected integers: {raw!r}")
    return tuple(int(v) for v in values)


def _parse_nonlinearity(raw: str) -> Nonlinearity:
    terms = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            power_s, coeff_s = piece.split(":")
            terms.append((int(power_s), float(coeff_s)))
        except ValueError as exc:
            raise ConfigError(
                f"bad nonlinearity term {piece!r}; expected power:coefficient"
            ) from exc
    try:
        return Nonlinearity(tuple(terms))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _InitialProfile:
    """Gaussian or sech bump used as custom initial data."""

    def __init__(self, kind, amplitude, width, center):
        if kind not in ("gaussian", "sech"):
            raise ConfigError(f"unknown initial profile kind {kind!r}")
        if width <= 0:
            raise ConfigError("initial profile width must be positive")
        self.kind = kind
        self.amplitude = amplitude
        self.width = width
        self.center = center

    def __call__(self, x):
        z = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-z * z)
        return self.amplitude / np.cosh(z)


# The sections and keys the loader reads.  Any other name is refused, so a
# misspelt key cannot leave a run on the default it meant to replace.
_KEYS = {
    "equation": {"kind", "blow_up_threshold"},
    "grid": {"domain_half_width", "h"},
    "time": {"t_end", "snapshots"},
    "integrator": {"rel_tol", "abs_tol", "max_steps"},
    "study": {"h_list", "n_list"},
    "decay": {"rate"},
    "output": {"dir"},
}
# The further [equation] keys each kind reads.
_EQUATION_KEYS = {
    "bbm": {"p", "c", "x0"},
    "rosenau": {"x0"},
    "custom": {"kernel_file", "nonlinearity", "initial", "initial_amplitude",
               "initial_width", "initial_center"},
}


def _check_names(parser) -> str:
    """Refuse sections and keys the loader does not read; returns the kind."""
    for name in ("equation", "grid", "time"):
        if not parser.has_section(name):
            raise ConfigError(f"missing [{name}] section")
    kind = parser["equation"].get("kind", "").strip().lower()
    if kind not in _EQUATION_KEYS:
        raise ConfigError(
            f"equation kind must be bbm, rosenau or custom, got {kind!r}")
    for name in parser.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]")
        known = _KEYS[name] | (_EQUATION_KEYS[kind] if name == "equation" else set())
        unknown = sorted(set(parser[name]) - known)
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{name}]")
    return kind


def _build_problem(sec, kind: str, base_dir: str) -> Problem:
    if kind == "bbm":
        return bbm_problem(
            p=sec.getint("p", 1),
            c=sec.getfloat("c", 1.8),
            x0=sec.getfloat("x0", -18.0),
        )
    if kind == "rosenau":
        return rosenau_problem(x0=sec.getfloat("x0", -2.5))
    path = sec.get("kernel_file", "").strip()
    if not path:
        raise ConfigError("custom equations need a kernel_file")
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not os.path.exists(path):
        raise ConfigError(f"kernel file not found: {path}")
    try:
        kernel = kernel_from_file(path)
    except ValueError as exc:
        raise ConfigError(f"bad kernel file {path}: {exc}") from exc
    raw_terms = sec.get("nonlinearity", "").strip()
    if not raw_terms:
        raise ConfigError("custom equations need a nonlinearity term list")
    nl = _parse_nonlinearity(raw_terms)
    profile = _InitialProfile(
        sec.get("initial", "gaussian").strip().lower(),
        sec.getfloat("initial_amplitude", 1.0),
        sec.getfloat("initial_width", 1.0),
        sec.getfloat("initial_center", 0.0),
    )
    return custom_problem(kernel, nl, profile)


def load_run_config(path: str) -> RunConfig:
    """Parse a configuration file and check every value in it.

    This function checks the INI format and the section and key names
    against ``_KEYS``; each value is checked by the class that owns it
    (``Grid``, ``StudyConfig``, ``IntegratorConfig``, ``DecayEnvelope``),
    and their ``ValueError`` becomes a ``ConfigError``.
    """
    parser = configparser.ConfigParser()

    def section(name):
        return parser[name] if parser.has_section(name) else {}

    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file: {path}")
        kind = _check_names(parser)
        problem = _build_problem(parser["equation"], kind,
                                 os.path.dirname(os.path.abspath(path)))
        grid_sec, time_sec = parser["grid"], parser["time"]
        half = _get(grid_sec, "domain_half_width")
        h = _get(grid_sec, "h")
        if half is None or h is None:
            raise ConfigError("[grid] needs domain_half_width and h")
        t_end = _get(time_sec, "t_end")
        if t_end is None:
            raise ConfigError("[time] needs t_end")
        integ = _present(section("integrator"), rel_tol="rel_tol",
                         abs_tol="abs_tol", max_steps="max_steps")
        if "max_steps" in integ:
            if integ["max_steps"] != int(integ["max_steps"]):
                raise ConfigError("max_steps must be a whole number")
            integ["max_steps"] = int(integ["max_steps"])
        rate = _get(section("decay"), "rate")
        if rate is not None:
            DecayEnvelope(rate=rate)
        study_sec, out_sec = section("study"), section("output")
        cfg = RunConfig(
            problem=problem,
            domain_half_width=half,
            h=h,
            t_end=t_end,
            snapshot_times=_float_list(time_sec.get("snapshots", "")),
            integrator=IntegratorConfig(**integ),
            h_list=_float_list(study_sec.get("h_list", "")),
            n_list=_int_list(study_sec.get("n_list", "")),
            decay_rate=rate,
            **_present(parser["equation"], blow_up_threshold="blow_up_threshold"),
            **({"output_dir": out_sec["dir"]} if "dir" in out_sec else {}),
        )
        cfg.grid()
        cfg.sweep_grids(cfg.h_list, cfg.n_list)
    except ConfigError:
        raise
    except (ValueError, OverflowError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _present(section, **keys) -> dict:
    """``{field: float value}`` for each ``field=key`` the section sets."""
    values = {field: _get(section, key) for field, key in keys.items()}
    return {field: v for field, v in values.items() if v is not None}


def _get(section, key):
    """Float value of a key, or None when it is absent or blank."""
    raw = section.get(key, None)
    if raw is None or not raw.strip():
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad numeric value for {key}: {raw!r}") from exc
