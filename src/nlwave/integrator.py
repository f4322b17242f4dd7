"""Adaptive embedded Runge-Kutta time integration with the DOP853 pair.

DOP853 is the eighth-order Dormand-Prince method with embedded fifth- and
third-order error estimates (P. J. Prince and J. R. Dormand, J. Comput. Appl.
Math. 7 (1981) 67-75; E. Hairer, S. P. Norsett and G. Wanner, Solving
Ordinary Differential Equations I, 2nd ed., Sec. II.10).  A step takes 11
new right-hand sides for its stages; an accepted step takes one more, f at
the new state, which is the next step's first stage, and the final step,
which has no next step, skips it.  So a run makes 12 per accepted step and
11 per rejected one, plus f(y0) and the first-step probe, minus the last.
Both estimates are max-norms scaled by ``abs_tol + rel_tol * |state|_inf``
and combine to ``err5^2 / sqrt(err5^2 + 0.01 err3^2)``; a step is accepted
when that is at most 1 and rescaled with safety factor 0.9 and ratio clamp
[0.2, 5].  Stage inputs share one buffer per run; the new state's increment
and both estimates are rows of the weight table ``_BE`` times the stages,
each by a matrix-vector product, which needs no BLAS work buffer.  Snapshots
are delivered by clipping steps exactly onto the requested times, which
keeps trajectories bit-reproducible for identical inputs.  The blow-up rule
is checked here, on the ``|state|_inf`` the error scale computes anyway.
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

# DOP853 tableau: float literals of the 12-stage block of SciPy's
# integrate._ivp.dop853_coefficients (numpy is the only runtime dependency).
# _A[i] holds stage i's weights on stages 0..i-1; the autonomous system
# needs no nodes C.
_A = (
    np.array([]),
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
              0.12546768756682242]),
    np.array([0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
              -0.017578125]),
    np.array([0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
              -0.015319437748624402, 0.008273789163814023]),
    np.array([0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
              27.59209969944671, 20.154067550477894, -43.48988418106996]),
    np.array([0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
              21.230051448181193, 15.279233632882423, -33.28821096898486,
              -0.020331201708508627]),
    np.array([-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
              -8.149787010746927, -18.52006565999696, 22.739487099350505,
              2.4936055526796523, -3.0467644718982196]),
    np.array([2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
              -17.9589318631188, 27.94888452941996, -2.8589982771350235,
              -8.87285693353063, 12.360567175794303, 0.6433927460157636]),
)
# Eighth-order weights of the propagating solution.
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
# Fifth- and third-order error weights; the 13th stage f(y_new) has weight 0.
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_E3 = np.array([-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082])
_BE = np.stack((_B, _E5, _E3))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERROR_ORDER = 7  # of the combined estimate; sets both step-size exponents


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
    rhs_calls: int

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
        h1 = (0.01 / max(d1, d2)) ** (1.0 / (_ERROR_ORDER + 1))
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
    snaps = [float(t) for t in snapshots]
    if not all(0.0 <= t <= t_end for t in snaps):
        raise ValueError("snapshot times must lie in [0, t_end]")
    if sorted(snaps) != snaps:
        raise ValueError("snapshot times must be sorted")
    return sorted({0.0, *snaps, t_end})  # both ends kept, duplicates dropped


def integrate(
    system: TruncatedSystem,
    initial: SampledSequence,
    t_end: float,
    snapshots=(),
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate the system from t=0 and record the snapshot states.

    Times 0 and ``t_end`` are always recorded, besides ``snapshots``.
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
    rhs_calls = 0

    def f(v):
        nonlocal rhs_calls
        rhs_calls += 1
        return system.rhs_values(v)

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
        return Trajectory(tuple(times), tuple(states), accepted, rejected, 0)

    k = np.empty((12, y.size))
    stage, sums = np.empty(y.size), np.empty((3, y.size))
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

            for i in range(1, 12):
                np.dot(h_use * _A[i], k[:i], out=stage)
                stage += y
                k[i] = f(stage)
            for weights, row in zip(h_use * _BE, sums):
                np.dot(weights, k, out=row)
            y_new = y + sums[0]
            y_new_norm = float(np.max(np.abs(y_new)))
            _check_state(y_new_norm, threshold, t + h_use)
            sc = cfg.abs_tol + cfg.rel_tol * max(y_norm, y_new_norm)
            err5 = float(np.max(np.abs(sums[1]))) / sc
            err3 = float(np.max(np.abs(sums[2]))) / sc
            denom = err5 * err5 + 0.01 * err3 * err3
            enorm = err5 * err5 / math.sqrt(denom) if denom > 0.0 else 0.0

            if enorm <= 1.0:
                accepted += 1
                t = target if clipped else t + h_use
                y, y_norm = y_new, y_new_norm
                if clipped:
                    times.append(t)
                    states.append(SampledSequence(system.grid, y))
                    ti += 1
                    if ti == len(targets):
                        break  # nothing reads f at the final state
                k[0] = f(y)  # E5 and E3 weigh it 0, so a rejected state skips it
                if clipped:
                    continue  # the clip carries no error information; keep h
            else:
                rejected += 1
            # a rejection's factor is below 0.9, so the clamp to 5 keeps it
            h = h_use * (_MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR,
                max(_MIN_FACTOR, _SAFETY * enorm ** (-1.0 / (_ERROR_ORDER + 1)))))

    return Trajectory(tuple(times), tuple(states), accepted, rejected, rhs_calls)
