"""Run-configuration files: flat INI-style key-value sections.

One file describes one study.  Everything is validated up front so a
malformed file never produces partial output.  Example::

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
``sech`` with amplitude/width/center keys).
"""

import configparser
import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import DecayEnvelope
from .experiments import IntegratorConfig, StudyConfig
from .kernels import kernel_from_file
from .problems import Problem, bbm_problem, custom_problem, rosenau_problem
from .system import DEFAULT_BLOW_UP_THRESHOLD, Nonlinearity

__all__ = ["ConfigError", "RunConfig", "load_run_config"]


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Fully validated configuration for one CLI invocation."""

    problem: Problem
    domain_half_width: float
    h: float
    t_end: float
    snapshot_times: tuple[float, ...]
    integrator: IntegratorConfig
    output_dir: str
    h_list: tuple[float, ...]
    n_list: tuple[int, ...]
    decay_rate: float | None
    decay_scale: float | None
    decay_constant: float | None
    fast_mode: str
    blow_up_threshold: float

    def study(self) -> StudyConfig:
        return StudyConfig(
            problem=self.problem,
            domain_half_width=self.domain_half_width,
            h=self.h,
            t_end=self.t_end,
            snapshot_times=self.snapshot_times,
            integrator=self.integrator,
            fast_mode=self.fast_mode,
            blow_up_threshold=self.blow_up_threshold,
        )


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
    """Picklable gaussian / sech bump used as custom initial data."""

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


def _build_problem(sec, base_dir: str) -> Problem:
    kind = sec.get("kind", "").strip().lower()
    if kind == "bbm":
        return bbm_problem(
            p=sec.getint("p", 1),
            c=sec.getfloat("c", 1.8),
            x0=sec.getfloat("x0", -18.0),
        )
    if kind == "rosenau":
        return rosenau_problem(x0=sec.getfloat("x0", -2.5))
    if kind == "custom":
        path = sec.get("kernel_file", "").strip()
        if not path:
            raise ConfigError("custom equations need a kernel_file")
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ConfigError(f"kernel file not found: {path}")
        tv = sec.getfloat("kernel_derivative_total_variation", fallback=None)
        try:
            kernel = kernel_from_file(path, derivative_total_variation=tv)
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
    raise ConfigError(f"equation kind must be bbm, rosenau or custom, got {kind!r}")


def load_run_config(path: str) -> RunConfig:
    """Parse and fully validate a configuration file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    base_dir = os.path.dirname(os.path.abspath(path))

    if not parser.has_section("equation"):
        raise ConfigError("missing [equation] section")
    if not parser.has_section("grid"):
        raise ConfigError("missing [grid] section")
    if not parser.has_section("time"):
        raise ConfigError("missing [time] section")

    try:
        problem = _build_problem(parser["equation"], base_dir)

        grid_sec = parser["grid"]
        half = grid_sec.getfloat("domain_half_width", fallback=None)
        h = grid_sec.getfloat("h", fallback=None)
        if half is None or h is None:
            raise ConfigError("[grid] needs domain_half_width and h")
        if not (half > 0 and h > 0):
            raise ConfigError("domain_half_width and h must be positive")

        time_sec = parser["time"]
        t_end = time_sec.getfloat("t_end", fallback=None)
        if t_end is None or t_end < 0:
            raise ConfigError("[time] needs a nonnegative t_end")
        snaps_raw = time_sec.get("snapshots", fallback="").strip()
        snapshots = _float_list(snaps_raw) if snaps_raw else ()
        if snapshots:
            if list(snapshots) != sorted(snapshots):
                raise ConfigError("snapshots must be sorted")
            if snapshots[0] < 0 or snapshots[-1] > t_end:
                raise ConfigError("snapshots must lie inside [0, t_end]")

        integ_sec = parser["integrator"] if parser.has_section("integrator") else {}
        try:
            integrator = IntegratorConfig(
                rel_tol=_get(integ_sec, "rel_tol", 1e-10),
                abs_tol=_get(integ_sec, "abs_tol", 1e-10),
                initial_step=_get(integ_sec, "initial_step", None),
                max_step=_get(integ_sec, "max_step", math.inf),
                max_steps=int(_get(integ_sec, "max_steps", 1_000_000)),
            )
        except ValueError as exc:
            raise ConfigError(f"bad [integrator] settings: {exc}") from exc

        study_sec = parser["study"] if parser.has_section("study") else {}
        h_list = _float_list(study_sec.get("h_list", "")) if study_sec else ()
        n_list = _int_list(study_sec.get("n_list", "")) if study_sec else ()
        if any(b >= a for a, b in zip(h_list, h_list[1:])):
            raise ConfigError("study h_list must be strictly decreasing")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("study n_list must be strictly increasing")
        if any(n < 1 for n in n_list):
            raise ConfigError("study n_list entries must be positive")

        decay_sec = parser["decay"] if parser.has_section("decay") else {}
        decay_rate = _get(decay_sec, "rate", None)
        decay_scale = _get(decay_sec, "scale", None)
        decay_constant = _get(decay_sec, "constant", None)
        if decay_rate is not None:
            # validate eagerly; the envelope enforces 0 < rate < 1
            DecayEnvelope(
                rate=decay_rate,
                scale=decay_scale if decay_scale is not None
                else problem.envelope_scale,
                constant=decay_constant if decay_constant is not None else 1.0,
            )

        out_sec = parser["output"] if parser.has_section("output") else {}
        output_dir = out_sec.get("dir", "nlwave-out") if out_sec else "nlwave-out"
        fast_mode = (out_sec.get("fast_conv", "auto") if out_sec else "auto").strip()
        if fast_mode not in ("auto", "on", "off"):
            raise ConfigError("fast_conv must be auto, on or off")

        threshold = _get(
            parser["equation"], "blow_up_threshold", DEFAULT_BLOW_UP_THRESHOLD
        )
        if threshold <= 0:
            raise ConfigError("blow_up_threshold must be positive")

        cfg = RunConfig(
            problem=problem,
            domain_half_width=half,
            h=h,
            t_end=t_end,
            snapshot_times=snapshots,
            integrator=integrator,
            output_dir=output_dir,
            h_list=h_list,
            n_list=n_list,
            decay_rate=decay_rate,
            decay_scale=decay_scale,
            decay_constant=decay_constant,
            fast_mode=fast_mode,
            blow_up_threshold=threshold,
        )
        # StudyConfig.grid holds the one check that each h divides the width
        study = cfg.study()
        for hv in (h, *h_list):
            study.grid(h=hv)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _get(section, key, default):
    """Float (or passthrough-default) lookup tolerant of dict-like sections."""
    if not section:
        return default
    raw = section.get(key, None)
    if raw is None or (isinstance(raw, str) and not raw.strip()):
        return default
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric value for {key}: {raw!r}") from exc
