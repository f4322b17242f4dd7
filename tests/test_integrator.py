"""Adaptive Dormand-Prince integration against independent oracles."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from nlwave import (
    BlowUpError,
    Grid,
    IntegratorConfig,
    Nonlinearity,
    SampledSequence,
    StepFailureError,
    TruncatedSystem,
    bbm_kernel,
    bbm_solitary,
    build_system,
    initial_data,
    integrate,
)


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
    # infinite threshold: only the finiteness rule can stop it
    g = Grid(h=0.5, n_half=64)
    system = build_system(bbm_kernel(), g, Nonlinearity(((1, 1.0),)),
                          blow_up_threshold=math.inf, fast_mode="on")
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


# each input with the rule it must trip: the threshold or non-finiteness
BLOW_UP_CASES = {
    "growth": (growth_stub, "threshold"),
    "above_threshold": (above_threshold, "threshold"),
    "f_overflow": (f_overflow, "non-finite"),
    "fft_convolution_overflow": (fft_convolution_overflow, "non-finite"),
    "cubic_overflow": (cubic_overflow, "non-finite"),
}


class TestConfigValidation:
    def test_tolerances_in_unit_interval(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=1.0)

    def test_step_limits(self):
        with pytest.raises(ValueError):
            IntegratorConfig(max_steps=0)


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

    def test_grid_mismatch_rejected(self):
        system = decay_stub(n_half=2)
        init = SampledSequence(Grid(h=1.0, n_half=1), np.ones(3))
        with pytest.raises(ValueError):
            integrate(system, init, 1.0)

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

    def test_max_steps_exceeded(self):
        system = decay_stub()
        init = SampledSequence(system.grid, np.ones(3))
        cfg = IntegratorConfig(max_steps=3)
        # four snapshots after t=0 take at least four steps
        with pytest.raises(StepFailureError):
            integrate(system, init, 1.0, snapshots=[0.25, 0.5, 0.75, 1.0],
                      config=cfg)

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
