"""Error metrics, convergence-rate fitting and the three study protocols.

The studies mirror the standard solitary-wave benchmark set: a profile
comparison at one resolution, an h-refinement sweep at fixed domain, and a
domain-truncation sweep at fixed mesh size.  The h-refinement sweep runs its
grids one after another; the truncation sweep steps its grids in lockstep as
one stack, each with its own step-size controller and counts.
"""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import evaluate_solitary, initial_data
from .discrete import Grid, SampledSequence, restrict
from .integrator import IntegratorConfig, Trajectory, _normalize_snapshots, integrate
from .problems import Problem
from .system import DEFAULT_BLOW_UP_THRESHOLD, build_system

__all__ = [
    "ErrorRecord",
    "StudyConfig",
    "TruncationRecord",
    "linf_error",
    "convergence_rate",
    "run_profile_study",
    "run_h_refinement",
    "run_truncation_study",
    "plateau_onset",
]


class ErrorRecord(NamedTuple):
    """One run's error sample plus cost metadata.

    The trajectory's ``accepted_steps``, ``rejected_steps`` and
    ``rhs_calls``; ``convolution`` names the path, ``"tail"`` or ``"fft"``,
    and ``fft_length`` its FFT cycle, ``None`` on the tail path.
    ``wall_time`` is the integration's: on a grid integrated as a row of a
    stack, that of the whole stack, the same for every row.
    """

    h: float
    n_half: int
    linf_error: float
    accepted_steps: int
    rejected_steps: int
    rhs_calls: int
    wall_time: float
    fft_length: int | None
    convolution: str


def linf_error(numeric: SampledSequence, wave, t: float) -> float:
    """Sup-norm gap between the numeric state and the exact wave at time t."""
    exact = evaluate_solitary(wave, numeric.grid.nodes, t)
    return float(np.max(np.abs(exact - numeric.values)))


def convergence_rate(e1: ErrorRecord, e2: ErrorRecord) -> float:
    """Observed order between two error records at distinct h:
    rho = log(E1/E2) / log(h1/h2)."""
    if e1.h == e2.h:
        raise ValueError("rate needs two distinct mesh sizes")
    if e1.linf_error == 0.0 or e2.linf_error == 0.0:
        raise ValueError("zero error: the observed order is undefined")
    return math.log(e1.linf_error / e2.linf_error) / math.log(e1.h / e2.h)


def _self_refined_rate(e1: ErrorRecord, e2: ErrorRecord, h_ref: float) -> float | None:
    # gaps to a reference at h_ref go as C (h^p - h_ref^p), whose ratio rises in p from 1:
    # bisect (h1^p - h_ref^p) / (h2^p - h_ref^p) = E1/E2, with no root at E1/E2 <= 1
    la, lb, target = math.log(e1.h / h_ref), math.log(e2.h / h_ref), e1.linf_error / e2.linf_error
    lo, hi = -710.0, 709.0  # q = p la, where e^q stays a float and no midpoint is 0
    for _ in range(100):
        q = (lo + hi) / 2
        lo, hi = (q, hi) if math.expm1(q) / math.expm1(q * lb / la) < target else (lo, q)
    return (lo + hi) / 2 / la if target > 1 else None


@dataclass(frozen=True)
class StudyConfig:
    """Shared run parameters for the study protocols.

    The horizon and snapshots are checked on construction, grid sizes by
    ``grid`` and ``sweep_grids``, the rest by the objects built from them.
    """

    problem: Problem
    domain_half_width: float
    h: float
    t_end: float
    snapshot_times: tuple[float, ...] = ()
    integrator: IntegratorConfig = IntegratorConfig()
    fast_mode: str = "auto"
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD

    def __post_init__(self):
        _normalize_snapshots(self.t_end, self.snapshot_times)

    def grid(self, h: float | None = None, n_half: int | None = None) -> Grid:
        if n_half is not None:
            return Grid(h=self.h, n_half=n_half)
        h = self.h if h is None else h
        ratio = self.domain_half_width / h if h > 0 else 0.0
        if not math.isfinite(ratio):
            raise ValueError(f"half-width / h = {ratio} is not a finite size")
        n = round(ratio)
        if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)) or n < 1:
            raise ValueError(
                f"mesh size {h} does not divide the half-width "
                f"{self.domain_half_width} evenly"
            )
        return Grid(h=h, n_half=int(n))

    def sweep_grids(self, h_values=(), n_values=()) -> list[Grid]:
        """Grids of an h-refinement (h strictly decreasing) and a truncation
        sweep (N strictly increasing), in list order."""
        h_values, n_values = list(h_values), list(n_values)
        if any(h2 >= h1 for h1, h2 in zip(h_values, h_values[1:])):
            raise ValueError("h values must be strictly decreasing")
        if any(n2 <= n1 for n1, n2 in zip(n_values, n_values[1:])):
            raise ValueError("N values must be strictly increasing")
        return ([self.grid(h=h) for h in h_values]
                + [self.grid(n_half=n) for n in n_values])


def run_single(cfg: StudyConfig, grid: Grid):
    """Integrate one configuration; returns (trajectory, record).

    The record's error field is NaN when the problem has no exact-solution
    oracle; study drivers fill it by self-refinement in that case.
    """
    return _run_rows(cfg, [grid])[0]


def _run_rows(cfg: StudyConfig, grids: list[Grid]):
    # grids of one h, N increasing, as one stack on the widest; (trajectory, record)s
    problem = cfg.problem
    if problem.wave is not None:
        inits = [initial_data(problem.wave, grid) for grid in grids]
    elif problem.initial_profile is not None:
        inits = [restrict(problem.initial_profile, grid) for grid in grids]
    else:
        raise ValueError("the problem carries neither a wave nor an initial profile")
    system = build_system(
        problem.kernel,
        grids[-1],
        problem.nonlinearity,
        blow_up_threshold=cfg.blow_up_threshold,
        fast_mode=cfg.fast_mode,
    )
    start = time.perf_counter()
    trajs = integrate(system, inits, cfg.t_end, cfg.snapshot_times, cfg.integrator)
    wall = time.perf_counter() - start
    return [(traj, ErrorRecord(
        h=traj.final.grid.h,
        n_half=traj.final.grid.n_half,
        linf_error=(linf_error(traj.final, problem.wave, traj.times[-1])
                    if problem.wave is not None else math.nan),
        accepted_steps=traj.accepted_steps,
        rejected_steps=traj.rejected_steps,
        rhs_calls=traj.rhs_calls,
        wall_time=wall,
        fft_length=system.fft_length,
        convolution=system.convolution,
    )) for traj in trajs]


def run_profile_study(cfg: StudyConfig):
    """One run at the configured resolution; returns (trajectory, record)
    as ``run_single`` does."""
    return run_single(cfg, cfg.grid())


def run_h_refinement(cfg: StudyConfig, h_values) -> list[tuple[ErrorRecord, float | None]]:
    """Fixed-domain error sweep over decreasing mesh sizes.

    Each h must divide the domain half-width evenly.  Without an exact wave,
    errors are gaps ``C (h^p - h_ref^p)`` to one more run at ``h_ref``, half
    the finest h, on shared nodes (grids that do not nest in it are refused
    before any run), and rates solve for p, ``None`` unless the error falls.
    A rate next to a zero error (as at ``t_end = 0``) is undefined: ``None``.
    """
    grids = cfg.sweep_grids(h_values=h_values)
    refine = cfg.problem.wave is None and bool(grids)
    if refine:  # the reference, half the finest h, runs as one more grid
        grids.append(cfg.grid(h=grids[-1].h / 2.0))
        # on one half-width a grid's nodes are the reference's exactly when its N divides
        if any(grids[-1].n_half % grid.n_half for grid in grids):
            raise ValueError("self-refinement requires nested grids")
    results = [run_single(cfg, g) for g in grids]
    if refine:
        ref = results.pop()[0].final
        results = [(traj, rec._replace(linf_error=float(np.max(np.abs(
            traj.final.values - ref.values[::ref.grid.n_half // rec.n_half])))))
            for traj, rec in results]
    records = [rec for _, rec in results]

    out: list[tuple[ErrorRecord, float | None]] = []
    prev = None
    for rec in records:
        defined = prev is not None and prev.linf_error and rec.linf_error
        rate = None if not defined else (_self_refined_rate(prev, rec, grids[-1].h) if refine
                                         else convergence_rate(prev, rec))
        out.append((rec, rate))
        prev = rec
    return out


class TruncationRecord(NamedTuple):
    """Error record plus the boundary-band diagnostics of one domain size."""

    record: ErrorRecord
    delta: float  # sup of |v| over the boundary band, over all snapshots
    eps_delta: float  # max |f| over [-delta, delta]


BAND_FRACTION = 0.05
PLATEAU_RATIO = 0.9


def _boundary_band_sup(traj: Trajectory) -> float:
    n = traj.states[0].grid.node_count
    band = max(1, int(round(BAND_FRACTION * n)))
    sup = 0.0
    for state in traj.states:
        v = state.values
        sup = max(sup, float(np.max(np.abs(v[:band]))),
                  float(np.max(np.abs(v[-band:]))))
    return sup


def run_truncation_study(cfg: StudyConfig, n_values) -> list[TruncationRecord]:
    """Fixed-h error sweep over the number of grid points.

    The domain ``[-N h, N h]`` grows with N; the boundary band (outermost
    ``BAND_FRACTION`` of nodes on each side) yields the diagnostics
    ``delta`` (band amplitude over all snapshots) and ``eps_delta``
    (max |f| over ``[-delta, delta]``).  The grids run as one stack on a
    system of the widest grid, whose path each record names.
    """
    grids = cfg.sweep_grids(n_values=n_values)
    if cfg.problem.wave is None:
        raise ValueError("the truncation study needs an exact-solution oracle")
    if not grids:
        return []

    records = []
    for traj, rec in _run_rows(cfg, grids):
        delta = _boundary_band_sup(traj)
        eps = cfg.problem.nonlinearity.max_abs_on_interval(delta)
        records.append(TruncationRecord(record=rec, delta=delta, eps_delta=eps))
    return records


def plateau_onset(records: list[TruncationRecord]) -> int | None:
    """First N at which the next error stops improving by more than
    ``PLATEAU_RATIO``.

    Returns the N of the first pair whose later error exceeds the threshold
    times the earlier one, or None when the errors keep falling throughout
    (an all-zero sweep, as at ``t_end = 0``, included).
    """
    for a, b in zip(records, records[1:]):
        if b.record.linf_error > PLATEAU_RATIO * a.record.linf_error:
            return a.record.n_half
    return None
