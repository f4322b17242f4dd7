"""Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) time integration.

Snapshots are delivered by clipping steps exactly onto the requested times,
which keeps trajectories bit-reproducible for identical inputs.  The error
controller accepts a step when the embedded estimate satisfies
``|err|_inf <= abs_tol + rel_tol * |state|_inf`` and rescales the step with
safety factor 0.9 and ratio clamp [0.2, 5].  The blow-up rule is checked
here, on the ``|state|_inf`` the error scale computes anyway.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrete import SampledSequence
from .system import BlowUpError, TruncatedSystem

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "StepFailureError",
    "integrate",
]

# Dormand-Prince 5(4) tableau; the propagating solution is fifth order and
# the last stage equals the first of the next step (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# Difference between the fifth- and embedded fourth-order weights.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER = 5


class StepFailureError(RuntimeError):
    """Step size underflowed or the step budget was exhausted."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step budget for the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (0.0 < tol < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at snapshot times, plus step statistics."""

    times: tuple[float, ...]
    states: tuple[SampledSequence, ...]
    accepted_steps: int
    rejected_steps: int

    @property
    def final(self) -> SampledSequence:
        return self.states[-1]


def _initial_step_heuristic(f, y0, f0, rel_tol, abs_tol):
    # Classic curvature heuristic from the first two right-hand sides:
    # scale a trial Euler step by the observed change of f.
    sc = abs_tol + rel_tol * float(np.max(np.abs(y0)))
    d0 = float(np.max(np.abs(y0))) / sc
    d1 = float(np.max(np.abs(f0))) / sc
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(y0 + h0 * f0)
    d2 = float(np.max(np.abs(f1 - f0))) / sc / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_ORDER + 1))
    return min(100.0 * h0, h1)


def _check_state(norm, threshold, t):
    # isfinite first: NaN fails it, and inf is caught even at threshold inf
    if not math.isfinite(norm):
        raise BlowUpError(f"non-finite values at t={t:.17g}")
    if norm > threshold:
        raise BlowUpError(f"state sup-norm {norm:g} exceeded the blow-up "
                          f"threshold {threshold:g} at t={t:.17g}")


def _normalize_snapshots(t_end, snapshots):
    # written so that NaN fails every comparison and is rejected
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be nonnegative and finite")
    if snapshots is None:
        snaps = [t_end]
    else:
        snaps = [float(t) for t in snapshots]
    if not all(0.0 <= t <= t_end for t in snaps):
        raise ValueError("snapshot times must lie in [0, t_end]")
    if sorted(snaps) != snaps:
        raise ValueError("snapshot times must be sorted")
    return sorted({0.0, *snaps})  # time zero first, duplicates dropped


def integrate(
    system: TruncatedSystem,
    initial: SampledSequence,
    t_end: float,
    snapshots=None,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate the system from t=0 and record the snapshot states.

    ``snapshots`` defaults to ``[t_end]``; time zero is always recorded.
    Raises ``BlowUpError`` when the initial state or an attempted step's
    state has a sup-norm above ``system.blow_up_threshold`` or a non-finite
    value, or f(y0) is non-finite; stage inputs are not checked, but a
    non-finite stage enters the step's state (0 * NaN = NaN).  Raises
    ``StepFailureError`` when the controller underflows the step or runs
    out of its step budget.
    """
    if initial.grid != system.grid:
        raise ValueError("initial state grid does not match the system grid")
    cfg = config or IntegratorConfig()
    snaps = _normalize_snapshots(t_end, snapshots)
    f = system.rhs_values

    t = 0.0
    y = initial.values.copy()
    times = [0.0]
    states = [SampledSequence(system.grid, y)]
    targets = [s for s in snaps if s > 0.0]
    accepted = rejected = 0
    threshold = system.blow_up_threshold
    y_norm = float(np.max(np.abs(y)))
    _check_state(y_norm, threshold, t)
    if not targets:
        return Trajectory(tuple(times), tuple(states), accepted, rejected)

    k = np.empty((7, y.size))
    # overflow ends in BlowUpError, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        k[0] = f(y)
        _check_state(float(np.max(np.abs(k[0]))), math.inf, t)  # f(y0) finite
        h = min(_initial_step_heuristic(f, y, k[0], cfg.rel_tol, cfg.abs_tol),
                targets[-1])

        ti = 0
        while ti < len(targets):
            if accepted + rejected >= cfg.max_steps:
                raise StepFailureError(f"exceeded max_steps={cfg.max_steps}")
            target = targets[ti]
            clipped = t + h >= target
            h_use = target - t if clipped else h
            if h_use <= 16.0 * np.finfo(float).eps * max(abs(t), 1.0):
                raise StepFailureError(f"step size underflow at t={t:.17g}")

            for i in range(1, 7):
                yi = y + h_use * (k[:i].T @ _A[i])
                k[i] = f(yi)
            y_new = y + h_use * (k.T @ _B5)
            y_new_norm = float(np.max(np.abs(y_new)))
            _check_state(y_new_norm, threshold, t + h_use)
            err = h_use * (k.T @ _E)
            sc = cfg.abs_tol + cfg.rel_tol * max(y_norm, y_new_norm)
            enorm = float(np.max(np.abs(err))) / sc

            if enorm <= 1.0:
                accepted += 1
                t = target if clipped else t + h_use
                y, y_norm = y_new, y_new_norm
                k[0] = k[6]  # FSAL: last stage is f at the accepted state
                if clipped:
                    times.append(t)
                    states.append(SampledSequence(system.grid, y))
                    ti += 1
                    continue  # the clip carries no error information; keep h
            else:
                rejected += 1
            # a rejection's factor is below 0.9, so the clamp to 5 keeps it
            h = h_use * (_MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)))

    return Trajectory(tuple(times), tuple(states), accepted, rejected)
