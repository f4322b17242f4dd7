"""Adaptive embedded Runge-Kutta (Dormand-Prince 5(4)) time integration.

Snapshots are delivered by clipping steps exactly onto the requested times,
which keeps trajectories bit-reproducible for identical inputs.  The error
controller accepts a step when the embedded estimate satisfies
``|err|_inf <= abs_tol + rel_tol * |state|_inf`` and rescales the step with
safety factor 0.9 and ratio clamp [0.2, 5].
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrete import SampledSequence
from .system import TruncatedSystem

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
    if not snaps or snaps[0] != 0.0:
        snaps.insert(0, 0.0)
    # drop duplicates, keep order
    out = []
    for t in snaps:
        if not out or t > out[-1]:
            out.append(t)
    return out


def integrate(
    system: TruncatedSystem,
    initial: SampledSequence,
    t_end: float,
    snapshots=None,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate the system from t=0 and record the snapshot states.

    ``snapshots`` defaults to ``[t_end]``; time zero is always recorded.
    Raises ``BlowUpError`` from the right-hand side and
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
    if not targets:
        return Trajectory(tuple(times), tuple(states), accepted, rejected)

    k = np.empty((7, y.size))
    k[0] = f(y)
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
        err = h_use * (k.T @ _E)
        sc = cfg.abs_tol + cfg.rel_tol * max(
            float(np.max(np.abs(y))), float(np.max(np.abs(y_new)))
        )
        enorm = float(np.max(np.abs(err))) / sc

        if enorm <= 1.0:
            accepted += 1
            t = target if clipped else t + h_use
            y = y_new
            k[0] = k[6]  # FSAL: last stage is f at the accepted state
            if clipped:
                times.append(t)
                states.append(SampledSequence(system.grid, y))
                ti += 1
                # the clip carries no error information; keep h as proposed
            else:
                factor = _MAX_FACTOR if enorm == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
                )
                h = h_use * factor
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            h = h_use * factor

    return Trajectory(tuple(times), tuple(states), accepted, rejected)
