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
[0.2, 5].  Snapshots are delivered by clipping steps exactly onto the
requested times, which keeps trajectories bit-reproducible for identical
inputs; a step ending short of one by at most the underflow bound is
lengthened onto it, and requested times closer than that bound are refused.
The blow-up rule is checked here, on the ``|state|_inf`` the error scale
computes anyway.  A stack is a list of states of the system's h, none wider
than its grid; this module alone lays them out left-aligned in rows that
are 0 past their ends.  One loop runs every run, a single state as a stack
of one: the rows step in lockstep, one right-hand side per stage for all,
each with its own clock, step size, snapshots, accept/reject decision and
counts (Hairer, Norsett and Wanner, Sec. II.4), and its stage sums and norms
over its own nodes alone; so a row of a tail kernel's stack is its own run
bit for bit.  Each step writes all rows' step weights in one call and takes
all their norms in one call, over the whole width: the sums' padding is 0,
so it leaves each row's norm its own; an idle row's entries go unread.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .discrete import SampledSequence
from .system import BlowUpError, TruncatedSystem

__all__ = ["IntegratorConfig", "Trajectory", "StepFailureError", "integrate"]

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
# Weights on the stages of the 11 stage inputs, the new state and the two
# estimates; times a row's h, after a weight on y, each is one product per row.
_STEP = np.zeros((14, 12))
for _i, _w in enumerate(_A[1:] + (_B, _E5, _E3)):
    _STEP[_i, :_w.size] = _w

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERROR_ORDER = 7  # of the combined estimate; sets both step-size exponents
_MAX_STEPS = 1_000_000  # step attempts a row may make before it fails


class StepFailureError(RuntimeError):
    """Step size underflowed or a row made ``_MAX_STEPS`` step attempts."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not (0.0 < tol < 1.0):
                raise ValueError(f"{name} must lie in (0, 1)")


class Trajectory(NamedTuple):
    """States recorded at snapshot times, plus step statistics."""

    times: tuple[float, ...]
    states: tuple[SampledSequence, ...]
    accepted_steps: int
    rejected_steps: int
    rhs_calls: int

    @property
    def final(self) -> SampledSequence:
        return self.states[-1]


def _initial_steps(f, rows, t_max, cfg):
    # Each row's f(y0), its k[1], must be finite; then the classic curvature heuristic per
    # row: scale a trial Euler step, its sums[0], by the change of f, which f() puts in k[2].
    for row in rows:
        f_norm = float(np.max(np.abs(row.k[1])))
        _check_state(f_norm, math.inf, 0.0, row.grid)
        row.sc = cfg.abs_tol + cfg.rel_tol * row.y_norm
        d0, row.d1 = row.y_norm / row.sc, f_norm / row.sc
        row.h = 1e-6 if (d0 < 1e-5 or row.d1 < 1e-5) else 0.01 * d0 / row.d1
        np.add(row.k[0], row.h * row.k[1], out=row.sums[0])
    f()
    for row in rows:  # h is 0 only if d1 overflowed; it then stays 0, a step size underflow
        diff = float(np.max(np.abs(row.k[2] - row.k[1]))) / row.sc
        d = max(row.d1, diff / row.h if row.h else math.inf)
        h1 = max(1e-6, row.h * 1e-3) if d <= 1e-15 else (0.01 / d) ** (1 / (_ERROR_ORDER + 1))
        row.h = min(100.0 * row.h, h1, t_max)


def _underflow_bound(t):
    # steps this short are refused: the clock cannot resolve them at t
    return 16.0 * math.ulp(1.0) * max(abs(t), 1.0)


def _check_state(norm, threshold, t, grid):
    # isfinite first: NaN fails it, and inf is caught even at threshold inf
    if not math.isfinite(norm):
        raise BlowUpError(f"non-finite values at t={t:.17g} on the N={grid.n_half} grid")
    if norm > threshold:
        raise BlowUpError(f"state sup-norm {norm:g} exceeded the blow-up threshold "
                          f"{threshold:g} at t={t:.17g} on the N={grid.n_half} grid")


def _normalize_snapshots(t_end, snapshots):
    # written so that NaN fails every comparison and is rejected
    if not 0.0 <= t_end < math.inf:
        raise ValueError("t_end must be nonnegative and finite")
    snaps = [float(t) for t in snapshots]
    if not all(0.0 <= t <= t_end for t in snaps):
        raise ValueError("snapshot times must lie in [0, t_end]")
    if sorted(snaps) != snaps:
        raise ValueError("snapshot times must be sorted")
    times = sorted({0.0, *snaps, t_end})  # both ends kept, duplicates dropped
    if any(b - a <= _underflow_bound(b) for a, b in zip(times, times[1:])):
        raise ValueError("0, snapshots and t_end must be 16 ulp(1) max(|t|, 1) apart")
    return times


class TrajectoryStack(tuple):
    """The trajectories of a stack of states; step counts sum over them."""
    accepted_steps = property(lambda self: sum(t.accepted_steps for t in self))
    rejected_steps = property(lambda self: sum(t.rejected_steps for t in self))


def integrate(
    system: TruncatedSystem,
    initial,
    t_end: float,
    snapshots=(),
    config: IntegratorConfig | None = None,
) -> Trajectory | TrajectoryStack:
    """Integrate the system from t=0 and record the snapshot states.

    Times 0 and ``t_end`` are always recorded, besides ``snapshots``.  Given a
    sequence of states of the system's h, none wider than its grid, returns
    their ``TrajectoryStack``.  Each row's stage sum is one product over its
    own nodes, y a term of weight 1 (0 in the error estimates).  Raises
    ``BlowUpError``, naming the grid, when the initial state or an attempted
    step's state has a sup-norm above ``system.blow_up_threshold`` or a
    non-finite value, or f(y0) is non-finite; stage inputs are not checked,
    but a non-finite stage enters the step's state (0 * NaN = NaN).  Raises
    ``StepFailureError`` when the controller underflows the step or a row makes
    ``_MAX_STEPS`` step attempts.
    """
    states = (initial,) if isinstance(initial, SampledSequence) else tuple(initial)
    if not states or any(s.grid.h != system.grid.h or s.grid.n_half > system.grid.n_half
                         for s in states):
        raise ValueError("initial state grid does not match the system grid")
    cfg = config or IntegratorConfig()
    targets = [s for s in _normalize_snapshots(t_end, snapshots) if s > 0.0]
    # y and the 12 stages.  A spare row leaves every row's block strided, as a single run's
    # is: numpy multiplies (1, K) by a contiguous (K, n) block with n <= 3 another way
    k = np.zeros((13, len(states) + 1, system.grid.node_count))[:, :-1]
    sums = np.zeros((3, *k.shape[1:]))  # a stage input, then the new state; err5; err3
    w = np.zeros((len(states), 14, 13))  # per row: y's weight, then _STEP times h
    w[:, :12, 0] = 1.0  # the stage inputs and the new state add y; the estimates do not
    h_use = np.zeros(len(states))  # an idle row's step size goes unread
    stage_outputs = list(enumerate(k[2:]))  # views built once a run; spent once a step is summed
    rows = []
    for i, state in enumerate(states):
        n = state.values.size
        k[0, i, :n] = state.values
        rows.append(SimpleNamespace(  # views of its own nodes; y's and sums' padding stays 0
            grid=state.grid, i=i, t=0.0, target=0, accepted=0, rejected=0,
            states=[state], y_norm=float(np.max(np.abs(state.values))),
            k=k[:, i, :n], sums=sums[:, i, :n],
            # one call each: the 11 stage inputs, then the new state and both estimates
            products=[(w[i, j, :j + 2], k[:j + 2, i, :n], sums[0, i, :n]) for j in range(11)]
            + [(w[i, 11:], k[:, i, :n], sums[:, i, :n])]))
        _check_state(rows[-1].y_norm, system.blow_up_threshold, 0.0, state.grid)

    # overflow ends in BlowUpError, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        if targets:
            system.rhs_values(k[0], out=k[1])
            _initial_steps(lambda: system.rhs_values(sums[0], out=k[2]), rows, targets[-1], cfg)
        where = "on the N={.grid.n_half} grid".format  # formatted only for an error
        while active := [row for row in rows if row.target < len(targets)]:
            for row in active:  # a finished row idles on its final state
                if row.accepted + row.rejected >= _MAX_STEPS:
                    raise StepFailureError(f"made {_MAX_STEPS} step attempts {where(row)}")
                target = targets[row.target]  # a sliver short of it is no steppable gap
                row.clipped = target - (row.t + row.h) <= _underflow_bound(target)
                row.h_use = target - row.t if row.clipped else row.h
                if row.h_use <= _underflow_bound(row.t):
                    raise StepFailureError(f"step size underflow at t={row.t:.17g} {where(row)}")
                h_use[row.i] = row.h_use
            np.multiply(h_use[:, None, None], _STEP, out=w[:, :, 1:])
            for i, f_out in stage_outputs:
                for row in active:
                    np.matmul(*row.products[i])
                system.rhs_values(sums[0], out=f_out)
            for row in active:
                np.matmul(*row.products[-1])
            norms = np.abs(sums, out=k[2:5]).max(axis=-1).T.tolist()  # into spent stages
            advanced = False
            for row in active:
                y_new_norm, err5, err3 = norms[row.i]
                _check_state(y_new_norm, system.blow_up_threshold, row.t + row.h_use, row.grid)
                sc = cfg.abs_tol + cfg.rel_tol * max(row.y_norm, y_new_norm)
                err5, err3 = err5 / sc, err3 / sc
                denom = err5 * err5 + 0.01 * err3 * err3
                enorm = err5 * err5 / math.sqrt(denom) if denom > 0.0 else 0.0

                if enorm <= 1.0:
                    row.accepted += 1
                    row.t = targets[row.target] if row.clipped else row.t + row.h_use
                    row.k[0], row.y_norm = row.sums[0], y_new_norm
                    if row.clipped:
                        row.states.append(SampledSequence(row.grid, row.k[0]))
                        row.target += 1
                        if row.target == len(targets):
                            continue  # nothing reads f at the final state
                    # E5 and E3 weigh f(y_new) 0, so a rejected state skips it
                    advanced = True
                    if row.clipped and row.h_use <= row.h:
                        continue  # a shortened step carries no error information; keep h
                else:
                    row.rejected += 1
                # a rejection's factor is below 0.9, so the clamp to 5 keeps it
                row.h = row.h_use * (_MAX_FACTOR if enorm == 0.0 else min(
                    _MAX_FACTOR,
                    max(_MIN_FACTOR, _SAFETY * enorm ** (-1.0 / (_ERROR_ORDER + 1)))))
            if advanced:  # rows that stayed put get the same f(y) again
                system.rhs_values(k[0], out=k[1])

    trajectories = TrajectoryStack(Trajectory(
        (0.0, *targets), tuple(row.states), row.accepted, row.rejected,
        12 * row.accepted + 11 * row.rejected + 1 if targets else 0) for row in rows)
    return trajectories[0] if isinstance(initial, SampledSequence) else trajectories
