"""Adaptive DOP853 integration against independent oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.linalg import expm

from nlwave import (
    BlowUpError,
    Grid,
    IntegratorConfig,
    Kernel,
    Nonlinearity,
    SampledSequence,
    StepFailureError,
    TruncatedSystem,
    bbm_kernel,
    bbm_problem,
    bbm_solitary,
    build_system,
    initial_data,
    integrate,
    restrict,
    rosenau_problem,
    tabulated_kernel,
)
from nlwave.integrator import _A, _B, _E3, _E5, TrajectoryStack, _initial_steps
from oracles import even_kernels, nonlinearities


def decay_stub(n_half=1, h=1.0, rate=1.0):
    """Stub system decoupling every node into u' = -rate * u."""
    g = Grid(h=h, n_half=n_half)
    stencil = np.zeros(4 * n_half + 1)
    stencil[2 * n_half] = rate / h
    return TruncatedSystem(grid=g, stencil=stencil,
                           nonlinearity=Nonlinearity(((1, 1.0),)))


def linear_system(n_half=16, h=0.5):
    g = Grid(h=h, n_half=n_half)
    system = build_system(bbm_kernel(), g, Nonlinearity(((1, 1.0),)))
    size = g.node_count
    dense = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            dense[i, j] = h * system.stencil[(i - j) + 2 * n_half]
    return g, system, dense


def growth_stub():
    # u' = +u^2 from u0 = 3 blows past the threshold 1e3 before t=2
    g = Grid(h=1.0, n_half=1)
    stencil = np.zeros(5)
    stencil[2] = -1.0  # rhs = +f(v) with h = 1
    system = TruncatedSystem(grid=g, stencil=stencil,
                             nonlinearity=Nonlinearity(((2, 1.0),)),
                             blow_up_threshold=1e3)
    return system, SampledSequence(g, [3.0, 3.0, 3.0])


def above_threshold():
    g = Grid(h=0.5, n_half=4)
    system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1),
                          blow_up_threshold=10.0)
    v = np.zeros(g.node_count)
    v[0] = 11.0
    return system, SampledSequence(g, v)


def f_overflow():
    # u^9 of 1e60 overflows although the state is far below the threshold
    g = Grid(h=0.5, n_half=4)
    system = build_system(bbm_kernel(), g, Nonlinearity(((9, 1.0),)),
                          blow_up_threshold=1e300)
    return system, SampledSequence(g, np.full(g.node_count, 1e60))


def fft_convolution_overflow():
    # finite f(v) whose transform-side accumulation still overflows, at an
    # infinite threshold: only the finiteness rule can stop it.  A table
    # takes the FFT path at every N
    g = Grid(h=0.5, n_half=250)
    system = build_system(tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]), g,
                          Nonlinearity(((1, 1.0),)), blow_up_threshold=math.inf)
    assert system.convolution == "fft"
    return system, SampledSequence(g, np.full(g.node_count, 5e306))


def cubic_overflow():
    # identity stub (rhs = f(v)) whose cubic overflows at one node
    g = Grid(h=1.0, n_half=1)
    stencil = np.zeros(5)
    stencil[2] = -1.0 / g.h
    system = TruncatedSystem(grid=g, stencil=stencil,
                             nonlinearity=Nonlinearity(((3, 1.0),)),
                             blow_up_threshold=math.inf)
    return system, SampledSequence(g, [0.0, 1e200, 0.0])


def f_y0_infinite():
    # a finite state whose f(y0) is +inf at every node, with no NaN: it must
    # be refused before the first-step heuristic divides by its norm
    g = Grid(h=1.0, n_half=1)
    stencil = np.zeros(5)
    stencil[2] = -1e300
    system = TruncatedSystem(grid=g, stencil=stencil, blow_up_threshold=1e10,
                             nonlinearity=Nonlinearity(((1, 1.0),)))
    return system, SampledSequence(g, [1e9, 1e9, 1e9])


# each input with the rule it must trip: the threshold or non-finiteness
BLOW_UP_CASES = {
    "growth": (growth_stub, "threshold"),
    "above_threshold": (above_threshold, "threshold"),
    "f_overflow": (f_overflow, "non-finite"),
    "fft_convolution_overflow": (fft_convolution_overflow, "non-finite"),
    "cubic_overflow": (cubic_overflow, "non-finite"),
    "f_y0_infinite": (f_y0_infinite, "non-finite"),
}


def hamiltonian(nonlinearity, state):
    """Discrete Hamiltonian ``sum_i h F(v_i)`` with ``F' = f``, ``F(0) = 0``."""
    v = state.values
    big_f = sum(c * v ** (p + 1) / (p + 1) for p, c in nonlinearity.terms)
    return state.grid.h * float(np.sum(big_f))


def solitary_run(problem, h, n_half, t_end):
    g = Grid(h=h, n_half=n_half)
    return problem.kernel, problem.nonlinearity, initial_data(problem.wave, g), t_end


def tabulated_run():
    # 0.5 exp(-|x|) interpolated on 401 nodes: an even kernel with no
    # closed-form solution, driven by the bbm f from a Gaussian
    x = np.linspace(-10.0, 10.0, 401)
    g = Grid(h=0.1, n_half=200)
    init = restrict(lambda z: 0.8 * np.exp(-z * z), g)
    return (tabulated_kernel(x, 0.5 * np.exp(-np.abs(x))), Nonlinearity.bbm(1),
            init, 10.0)


# kernel, nonlinearity, initial state and horizon of each Hamiltonian run
HAMILTONIAN_RUNS = {
    "bbm": lambda: solitary_run(bbm_problem(), 0.1, 300, 20.0),
    "rosenau": lambda: solitary_run(rosenau_problem(), 0.05, 240, 10.0),
    "tabulated": tabulated_run,
}


class TestTableau:
    def test_constants_match_scipy_bit_for_bit(self):
        for i, row in enumerate(_A):
            np.testing.assert_array_equal(row, dop853.A[i, :i])
            assert not np.any(dop853.A[i, i:])
        np.testing.assert_array_equal(_B, dop853.B)
        # the 13th stage, f at the new state, carries no error weight
        np.testing.assert_array_equal(_E5, dop853.E5[:12])
        np.testing.assert_array_equal(_E3, dop853.E3[:12])
        assert dop853.E5[12] == dop853.E3[12] == 0.0

    def test_row_sums_equal_the_nodes(self):
        sums = [float(np.sum(row)) for row in _A]
        np.testing.assert_allclose(sums, dop853.C[:12], rtol=0.0, atol=1e-15)

    def test_observed_order_is_eight(self):
        # tolerances so loose that every step is clipped onto the snapshot
        # grid, so the run takes fixed steps of size d
        loose = IntegratorConfig(rel_tol=0.5, abs_tol=0.5)
        errors = []
        for d in (1 / 4, 1 / 8, 1 / 16, 1 / 32):
            system = decay_stub(rate=4.0)
            snaps = [d * j for j in range(1, round(2.0 / d) + 1)]
            traj = integrate(system, SampledSequence(system.grid, np.ones(3)),
                             2.0, snaps, loose)
            assert traj.accepted_steps == len(snaps)
            errors.append(np.max(np.abs(traj.final.values - math.exp(-8.0))))
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(7.5 <= q <= 8.5 for q in orders), orders

    @pytest.mark.parametrize("dt", [0.2, 0.125, 0.1, 0.01])
    def test_one_step_is_the_stability_function(self, dt):
        # one clipped step on u' = -4u is R(z) y0 at z = -4 dt, with
        # R(z) = 1 + z b^T (I - z A)^-1 1 from SciPy's tableau; from
        # dt = 0.1 up, R(z) differs from e^z by more than 1e-11 relative
        a, b = dop853.A[:12, :12], dop853.B
        z = -4.0 * dt
        r = 1.0 + z * (b @ np.linalg.solve(np.eye(12) - z * a, np.ones(12)))
        system = decay_stub(rate=4.0)
        y0 = np.array([1.0, -0.5, 2.0])
        traj = integrate(system, SampledSequence(system.grid, y0), dt,
                         config=IntegratorConfig(rel_tol=0.5, abs_tol=0.5))
        assert traj.accepted_steps == 1 and traj.rejected_steps == 0
        np.testing.assert_allclose(traj.final.values, r * y0, rtol=1e-14, atol=0)


class TestConfigValidation:
    def test_tolerances_in_unit_interval(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=1.0)


class TestBasicContracts:
    def test_zero_horizon_returns_initial_only(self):
        system = decay_stub()
        init = SampledSequence(system.grid, [1.0, 2.0, 3.0])
        traj = integrate(system, init, 0.0)
        assert traj.times == (0.0,)
        np.testing.assert_array_equal(traj.final.values, init.values)
        assert traj.accepted_steps == 0

    def test_snapshot_times_recorded_exactly(self):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        traj = integrate(system, init, 1.0, snapshots=[0.25, 0.5, 1.0])
        assert traj.times == (0.0, 0.25, 0.5, 1.0)
        assert len(traj.states) == 4

    def test_t_end_recorded_without_being_listed(self):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        traj = integrate(system, init, 1.0, snapshots=[0.5])
        assert traj.times == (0.0, 0.5, 1.0)

    def test_unsorted_snapshots_rejected(self):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        with pytest.raises(ValueError):
            integrate(system, init, 1.0, snapshots=[0.5, 0.25])

    def test_out_of_range_snapshots_rejected(self):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        with pytest.raises(ValueError):
            integrate(system, init, 1.0, snapshots=[2.0])
        with pytest.raises(ValueError):
            integrate(system, init, math.nan)

    @pytest.mark.parametrize("t_end, snapshots", [
        (6.0, (5.0, math.nextafter(5.0, math.inf))),
        (1.0, (math.nextafter(1.0, 0.0),)),
        (1.0, (1e-15,)),
        (1e-15, ()),
    ], ids=["adjacent-snapshots", "snapshot-at-t_end", "snapshot-at-0", "t_end-at-0"])
    def test_requested_times_closer_than_the_underflow_bound_rejected(self, t_end,
                                                                      snapshots):
        # no step can be that short, so 0, the snapshots and t_end must be
        # further apart than 16 ulp(1) max(|t|, 1); equal times merge
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        with pytest.raises(ValueError, match="apart"):
            integrate(system, init, t_end, snapshots=snapshots)
        assert integrate(system, init, 1.0, snapshots=[0.0, 1.0]).times == (0.0, 1.0)

    def test_grid_mismatch_rejected(self):
        # a state may be narrower than the system's grid, not wider or of
        # another h
        system = decay_stub(n_half=2)
        for grid in (Grid(h=1.0, n_half=3), Grid(h=0.5, n_half=2)):
            with pytest.raises(ValueError):
                integrate(system, SampledSequence(grid, np.ones(grid.node_count)), 1.0)

    def test_exponential_decay_stub(self):
        # every node obeys u' = -u, so the t=1 state is exp(-1) exactly
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        traj = integrate(system, init, 1.0)
        assert np.max(np.abs(traj.final.values - math.exp(-1.0))) < 1e-8

    def test_determinism(self):
        wave = bbm_solitary(x0=-5.0)
        g = Grid(h=0.5, n_half=30)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        init = initial_data(wave, g)
        a = integrate(system, init, 3.0, snapshots=[1.5, 3.0])
        b = integrate(system, init, 3.0, snapshots=[1.5, 3.0])
        assert a.times == b.times
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa.values, sb.values)
        assert (a.accepted_steps, a.rejected_steps) == (
            b.accepted_steps, b.rejected_steps)


class TestLinearOracle:
    def test_matches_matrix_exponential(self):
        g, system, dense = linear_system()
        rng = np.random.default_rng(42)
        y0 = rng.standard_normal(g.node_count)
        traj = integrate(system, SampledSequence(g, y0), 1.0)
        ref = expm(-dense) @ y0
        assert np.max(np.abs(traj.final.values - ref)) < 1e-8

    def test_halving_tolerances_does_not_hurt(self):
        g, system, dense = linear_system()
        rng = np.random.default_rng(43)
        y0 = rng.standard_normal(g.node_count)
        ref = expm(-dense) @ y0

        def err(rtol, atol):
            cfg = IntegratorConfig(rel_tol=rtol, abs_tol=atol)
            traj = integrate(system, SampledSequence(g, y0), 1.0, config=cfg)
            return np.max(np.abs(traj.final.values - ref))

        e_loose = err(1e-10, 1e-10)
        e_tight = err(5e-11, 5e-11)
        assert e_tight <= 10.0 * e_loose


class TestDiscreteHamiltonian:
    @pytest.mark.parametrize("case", list(HAMILTONIAN_RUNS))
    def test_drift_is_time_integration_error_alone(self, case):
        # an even kernel gives an odd stencil, so the truncated matrix is skew
        # and the semi-discrete system conserves sum_i h F(v_i) exactly
        kernel, nonlinearity, init, t_end = HAMILTONIAN_RUNS[case]()
        system = build_system(kernel, init.grid, nonlinearity)
        snaps = [t_end * j / 10 for j in range(1, 11)]
        traj = integrate(system, init, t_end, snaps)
        h0 = hamiltonian(nonlinearity, traj.states[0])
        drift = max(abs(hamiltonian(nonlinearity, s) - h0) for s in traj.states)
        assert drift <= 1e-7 * abs(h0)  # 1e3 times the default tolerances


class TestStepControl:
    def test_no_spatial_stability_restriction(self):
        # halving h must not (more than) double the accepted step count
        wave = bbm_solitary(x0=-10.0)

        def steps(h):
            g = Grid(h=h, n_half=int(round(20.0 / h)))
            system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
            traj = integrate(system, initial_data(wave, g), 2.0)
            return traj.accepted_steps

        coarse, fine = steps(0.25), steps(0.125)
        assert fine <= 2 * coarse

    def test_max_steps_exceeded(self, monkeypatch):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        monkeypatch.setattr("nlwave.integrator._MAX_STEPS", 3)
        # four snapshots after t=0 take at least four steps
        with pytest.raises(StepFailureError, match="3 step attempts on the N=1 grid"):
            integrate(system, init, 1.0, snapshots=[0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("system", [decay_stub(), build_system(
        bbm_kernel(), Grid(h=0.25, n_half=40), Nonlinearity.bbm(1))], ids=["stub", "bbm"])
    def test_zero_state_grows_each_step_by_the_clamp(self, system):
        # f(y0) = 0 sets the first step to 1e-6 and every estimate to 0, so
        # each accepted step is _MAX_FACTOR = 5 times the last: reaching t = 1
        # takes the least n with 1e-6 (5^n - 1) / 4 >= 1, ceil(log5(4e6 + 1))
        zero = SampledSequence(system.grid, np.zeros(system.grid.node_count))
        traj = integrate(system, zero, 1.0)
        assert (traj.accepted_steps, traj.rejected_steps, traj.rhs_calls) == (10, 0, 121)

    @pytest.mark.parametrize("rate, y0, t_end, tol, counts", [
        (1.0, 1.0, 10.0, 1e-10, (22, 0)), (4.0, 2.0, 3.0, 1e-6, (10, 0)),
        (20.0, 1.0, 2.0, 1e-4, (10, 2)), (50.0, 1.0, 1.0, 1e-3, (10, 3))])
    def test_decay_takes_the_steps_of_the_tableau_and_error_rule(self, rate, y0, t_end, tol,
                                                                  counts):
        # u' = -rate u on a constant state: a step of size d from y gives y R(z),
        # err5 y |z e5^T (I - z A)^-1 1| and err3 likewise, z = -rate d, from SciPy's
        # tableau; the documented first-step heuristic, combined estimate, acceptance
        # and controller then fix the run's accepted and rejected steps
        a, b, e5, e3 = dop853.A[:12, :12], dop853.B, dop853.E5[:12], dop853.E3[:12]
        h0 = 0.01 / rate  # 0.01 |y0| / |f(y0)|
        d1 = rate * y0 / (tol + tol * y0)  # |f(y0)| / sc
        d = max(d1, rate * d1)  # |f(y0 + h0 f(y0)) - f(y0)| / (sc h0) = rate d1
        h = min(100.0 * h0, (0.01 / d) ** (1 / 8), t_end)
        t, y, accepted, rejected, margin = 0.0, y0, 0, 0, math.inf
        while True:
            last = t_end - (t + h) <= 16 * math.ulp(1.0) * max(t_end, 1.0)
            step = t_end - t if last else h
            z = -rate * step
            k = np.linalg.solve(np.eye(12) - z * a, np.ones(12))
            y_new = y * (1.0 + z * (b @ k))
            sc = tol + tol * max(abs(y), abs(y_new))
            err5, err3 = abs(y * z * (e5 @ k)) / sc, abs(y * z * (e3 @ k)) / sc
            enorm = err5**2 / math.sqrt(err5**2 + 0.01 * err3**2)
            margin = min(margin, abs(math.log(enorm)))
            if enorm <= 1.0:
                accepted += 1
                if last:
                    break
                t, y = t + step, y_new
            else:
                rejected += 1
            h = step * min(5.0, max(0.2, 0.9 * enorm ** (-1 / 8)))
        # no decision is a near tie that the reference's rounding could flip
        assert margin > 0.02 and (accepted, rejected) == counts
        system = decay_stub(rate=rate)
        traj = integrate(system, SampledSequence(system.grid, np.full(3, y0)), t_end,
                         config=IntegratorConfig(rel_tol=tol, abs_tol=tol))
        assert (traj.accepted_steps, traj.rejected_steps) == counts

    def test_tolerance_below_any_step_fails_on_the_first(self):
        g = Grid(h=0.25, n_half=40)
        system = build_system(bbm_kernel(), g, Nonlinearity.bbm(1))
        cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
        with pytest.raises(StepFailureError,
                           match="step size underflow at t=0 on the N=40 grid"):
            integrate(system, initial_data(bbm_solitary(x0=-3.0), g), 1.0, config=cfg)

    def test_enormous_finite_f_of_the_initial_state_underflows_the_step(self):
        # a tail of height 1e300 makes |f(y0)| finite, near 1e300, but its
        # scaled norm |f(y0)| / (abs_tol + rel_tol |y0|) overflows, so the
        # first step's estimate is 0: the controller's underflow, not a
        # division by zero
        g = Grid(h=0.25, n_half=40)
        system = build_system(Kernel(tail=(1e300, -1.0)), g, Nonlinearity.bbm(1))
        with pytest.raises(StepFailureError,
                           match="step size underflow at t=0 on the N=40 grid"):
            integrate(system, restrict(lambda x: 0.3 / np.cosh(x / 2), g), 0.5)

    @pytest.mark.parametrize("case", list(BLOW_UP_CASES))
    def test_blow_up_propagates(self, case):
        # no np.errstate here: the suite turns any numpy warning into a failure
        build, message = BLOW_UP_CASES[case]
        system, init = build()
        with pytest.raises(BlowUpError, match=message):
            integrate(system, init, 2.0)

    def test_zero_horizon_checks_the_initial_state(self):
        system, init = above_threshold()
        with pytest.raises(BlowUpError, match="threshold"):
            integrate(system, init, 0.0)


def first_step_end(system, init, t_end):
    """Where integrate's first step from t = 0 ends, by its own heuristic."""
    k, trial = np.zeros((3, init.values.size)), np.zeros((1, init.values.size))
    k[0] = init.values  # y0, f(y0) and the probe f(trial)
    k[1] = system.rhs_values(k[0])
    row = SimpleNamespace(grid=init.grid, y_norm=float(np.max(np.abs(k[0]))), k=k, sums=trial)

    def f():  # the trial state's f into the probe
        k[2] = system.rhs_values(trial[0])

    _initial_steps(f, [row], t_end, IntegratorConfig())
    return row.h


@pytest.mark.parametrize("ulps", [1, 2, 4, 8])
def test_step_ending_a_sliver_short_of_a_snapshot_is_lengthened_onto_it(ulps):
    # a snapshot a few ulps past the first step's end: stepping there and
    # then across the sliver would underflow, so the step is lengthened onto
    # it, and the run takes the steps it takes without that snapshot
    kernel, f, init, t_end = solitary_run(bbm_problem(), 0.25, 120, 20.0)
    system = build_system(kernel, init.grid, f)
    snap = first_step_end(system, init, t_end)
    for _ in range(ulps):
        snap = math.nextafter(snap, math.inf)
    traj = integrate(system, init, t_end, snapshots=[snap, 10.0])
    own = integrate(system, init, t_end, snapshots=[10.0])
    assert traj.times == (0.0, snap, 10.0, 20.0)
    assert (traj.accepted_steps, traj.rejected_steps) == (own.accepted_steps, 0)
    scale = np.max(np.abs(own.final.values))
    assert np.max(np.abs(traj.final.values - own.final.values)) <= 1e-12 * scale


class TestRhsCount:
    def test_twelve_per_accepted_step_eleven_per_rejection(self):
        # on u' = -50 u the controller overshoots and rejects steps; the +1
        # is f(y0) and the first-step heuristic's probe, less f at the final
        # state, which nothing reads
        system = decay_stub(rate=50.0)
        traj = integrate(system, SampledSequence(system.grid, np.ones(3)), 1.0)
        assert traj.rejected_steps > 0
        assert traj.rhs_calls == (
            12 * traj.accepted_steps + 11 * traj.rejected_steps + 1)

    def test_zero_horizon_evaluates_nothing(self):
        system = decay_stub()
        traj = integrate(system, SampledSequence(system.grid, np.ones(3)), 0.0)
        assert traj.rhs_calls == 0

    @pytest.mark.parametrize("run", ["rejecting", "snapshot", "zero_horizon"])
    def test_count_is_the_number_of_calls(self, monkeypatch, run):
        # the identity above is the bookkeeping's; this counts the calls
        calls, rhs_values = [], TruncatedSystem.rhs_values

        def counted(self, v, out=None):
            calls.append(v.shape)
            return rhs_values(self, v, out)

        monkeypatch.setattr(TruncatedSystem, "rhs_values", counted)
        if run == "snapshot":
            g = Grid(h=0.25, n_half=60)
            traj = integrate(build_system(bbm_kernel(), g, Nonlinearity.bbm(1)),
                             initial_data(bbm_solitary(p=1, c=1.8, x0=-5.0), g),
                             2.0, snapshots=[0.7])
            assert traj.times == (0.0, 0.7, 2.0)
        else:
            system = decay_stub(rate=50.0)
            traj = integrate(system, SampledSequence(system.grid, np.ones(3)),
                             1.0 if run == "rejecting" else 0.0)
            assert (traj.rejected_steps > 0) == (run == "rejecting")
        assert traj.rhs_calls == len(calls) == (0 if run == "zero_horizon" else (
            12 * traj.accepted_steps + 11 * traj.rejected_steps + 1))


def node_stub(n_half, rate, nonlinearity, threshold=1e6):
    """Stub system decoupling every node into u' = -rate * f(u)."""
    g = Grid(h=1.0, n_half=n_half)
    stencil = np.zeros(4 * n_half + 1)
    stencil[2 * n_half] = rate
    return TruncatedSystem(grid=g, stencil=stencil, nonlinearity=nonlinearity,
                           blow_up_threshold=threshold)


class TestStack:
    """A stack of states runs in lockstep, each row as its own run would."""

    # u' = -(u + u^3): from 0.1 and 0.5 the controller rejects no step, from
    # 2.0 it rejects one
    CUBIC = Nonlinearity(((1, 1.0), (3, 1.0)))

    def test_rows_match_their_own_runs(self):
        rows, amplitudes = (1, 3, 2), (0.1, 2.0, 0.5)
        stack = integrate(node_stub(3, 1.0, self.CUBIC),
                          [SampledSequence(Grid(1.0, n), np.full(2 * n + 1, a))
                           for n, a in zip(rows, amplitudes)],
                          1.0, snapshots=[0.5])
        assert isinstance(stack, TrajectoryStack) and len(stack) == 3
        counts = set()
        for traj, n, a in zip(stack, rows, amplitudes):
            system = node_stub(n, 1.0, self.CUBIC)
            own = integrate(system, SampledSequence(system.grid,
                                                    np.full(2 * n + 1, a)),
                            1.0, snapshots=[0.5])
            assert (traj.accepted_steps, traj.rejected_steps, traj.rhs_calls) == (
                own.accepted_steps, own.rejected_steps, own.rhs_calls)
            assert traj.rhs_calls == (
                12 * traj.accepted_steps + 11 * traj.rejected_steps + 1)
            assert traj.times == own.times == (0.0, 0.5, 1.0)
            for state, own_state in zip(traj.states, own.states):
                assert state.grid == Grid(1.0, n)
                np.testing.assert_allclose(state.values, own_state.values,
                                           rtol=1e-12, atol=0)
            counts.add((traj.accepted_steps, traj.rejected_steps > 0))
        # the rows finish at different step counts, and only some reject
        assert len({acc for acc, _ in counts}) == 3
        assert {rejects for _, rejects in counts} == {False, True}
        assert stack.accepted_steps == sum(t.accepted_steps for t in stack)
        assert stack.rejected_steps == sum(t.rejected_steps for t in stack)

    def test_rows_of_a_multi_block_tail_grid_match_their_own_runs(self):
        # at h = 2 a bbm tail block holds 231 nodes on every grid: the N = 300
        # grid runs in 3 blocks, N = 120 in 2 and N = 50 in one.  A profile of
        # size 1 everywhere makes the carries and the narrower rows' zero
        # padding count at every block boundary and row edge
        problem = bbm_problem()
        grids = [Grid(2.0, n) for n in (50, 120, 300)]
        inits = [SampledSequence(g, 0.5 * np.sin(0.3 * g.nodes) + 0.2 * np.cos(0.11 * g.nodes))
                 for g in grids]
        systems = [build_system(problem.kernel, g, problem.nonlinearity) for g in grids]
        # a row, left-aligned and padded with zeros, sums in its own run's blocks
        rows = np.zeros((len(inits), grids[-1].node_count))
        for row, init in zip(rows, inits):
            row[:init.values.size] = init.values
        for rhs, init, own_system in zip(systems[-1].rhs_values(rows), inits, systems):
            assert np.array_equal(rhs[:init.values.size], own_system.rhs_values(init.values))
        stack = integrate(systems[-1], inits, 4.0, snapshots=[2.0])
        for traj, init, own_system in zip(stack, inits, systems):
            own = integrate(own_system, init, 4.0, snapshots=[2.0])
            assert (traj.accepted_steps, traj.rejected_steps, traj.rhs_calls) == (
                own.accepted_steps, own.rejected_steps, own.rhs_calls)
            for state, own_state in zip(traj.states, own.states):
                assert state.grid == init.grid
                np.testing.assert_array_equal(state.values, own_state.values)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_random_stack_rows_match_their_own_runs(self, data):
        # an even kernel, whose widest grid may span several tail blocks;
        # 2-4 grids, a polynomial f and random states of amplitude <= 0.5
        draw = data.draw
        kernel, h = draw(even_kernels())
        f = draw(nonlinearities)
        ns = sorted(draw(st.lists(st.integers(1, 120), min_size=2, max_size=4, unique=True)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        inits = [SampledSequence(Grid(h, n), rng.uniform(-0.5, 0.5, 2 * n + 1)) for n in ns]
        t_end = draw(st.floats(0.4, 0.6))
        snapshots = [draw(st.floats(0.1, 0.9)) * t_end]
        owns = []
        for init in inits:
            try:
                owns.append(integrate(build_system(kernel, init.grid, f), init, t_end, snapshots))
            except (BlowUpError, StepFailureError):  # the draw blows up before t_end
                reject()
        stack = integrate(build_system(kernel, inits[-1].grid, f), inits, t_end, snapshots)
        for traj, own, init in zip(stack, owns, inits):
            assert (traj.accepted_steps, traj.rejected_steps, traj.rhs_calls) == (
                own.accepted_steps, own.rejected_steps, own.rhs_calls)
            assert traj.rhs_calls == (
                12 * traj.accepted_steps + 11 * traj.rejected_steps + 1)
            assert traj.times == own.times
            scale = max(np.max(np.abs(state.values)) for state in own.states)
            for state, own_state in zip(traj.states, own.states):
                assert state.grid == init.grid
                if kernel.tail is not None:  # a tail row is its own run
                    np.testing.assert_array_equal(state.values, own_state.values)
                else:  # a table's direct sums run over the widest grid's stencil
                    np.testing.assert_allclose(state.values, own_state.values,
                                               rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("a, lam, h, terms, ns, t_end, snapshot, seed", [
        (0.1 + 0.75j, -6.9 - 2.3j, 1.1, ((2, -0.8),), (2, 62), 0.5, 0.25, 28),
        (-0.375 + 1.73j, -5.56 + 6.13j, 1.4, ((4, 0.4),), (1, 76, 108), 0.55, 0.3, 302),
        (-0.0133 - 1.478j, -7.5 - 7.6j, 0.96, ((2, -0.9),), (3, 13, 30, 120), 0.44, 0.2, 19),
    ])
    def test_tail_stack_rows_are_their_own_runs_bit_for_bit(self, a, lam, h, terms, ns,
                                                            t_end, snapshot, seed):
        # stacks in which a row took other step counts than its own run when
        # the stage sums ran over the widest grid's nodes: 4 steps stacked and
        # 3 alone on the N = 2 row, 3 and 4 on N = 1, 3 and 4 on N = 30
        kernel, f = Kernel(tail=(a, lam)), Nonlinearity(terms)
        rng = np.random.default_rng(seed)
        inits = [SampledSequence(Grid(h, n), rng.uniform(-0.5, 0.5, 2 * n + 1)) for n in ns]
        stack = integrate(build_system(kernel, inits[-1].grid, f), inits, t_end, [snapshot])
        for traj, init in zip(stack, inits):
            own = integrate(build_system(kernel, init.grid, f), init, t_end, [snapshot])
            assert (traj.accepted_steps, traj.rejected_steps, traj.rhs_calls) == (
                own.accepted_steps, own.rejected_steps, own.rhs_calls)
            assert traj.times == own.times
            for state, own_state in zip(traj.states, own.states):
                np.testing.assert_array_equal(state.values, own_state.values)

    def test_blow_up_in_one_row_names_its_grid(self):
        # u' = +u^2 from 3 passes 1e3 before t = 2, from 0.1 it does not
        system = node_stub(2, -1.0, Nonlinearity(((2, 1.0),)), threshold=1e3)
        init = [SampledSequence(Grid(1.0, 1), np.full(3, 0.1)),
                SampledSequence(Grid(1.0, 2), np.full(5, 3.0))]
        with pytest.raises(BlowUpError, match="threshold .* on the N=2 grid"):
            integrate(system, init, 2.0)

    def test_row_grids_must_fit_the_system(self):
        # an empty stack, a row of another h and a row wider than the system
        system = node_stub(2, 1.0, self.CUBIC)
        narrow = SampledSequence(Grid(1.0, 1), np.ones(3))
        for stack in ([], [narrow, SampledSequence(Grid(0.5, 1), np.ones(3))],
                      [narrow, SampledSequence(Grid(1.0, 3), np.ones(7))]):
            with pytest.raises(ValueError, match="grid"):
                integrate(system, stack, 1.0)
