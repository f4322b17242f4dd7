"""Solitary-wave oracles and decay-envelope checks."""

import math
import warnings

import numpy as np
import pytest

from nlwave import (
    DecayEnvelope,
    Grid,
    Nonlinearity,
    SampledSequence,
    bbm_problem,
    bbm_solitary,
    calibrate_envelope,
    check_decay,
    custom_problem,
    evaluate_solitary,
    initial_data,
    rosenau_problem,
    rosenau_solitary,
    tabulated_kernel,
)


class TestSolitaryWaves:
    def test_bbm_amplitude_and_width(self):
        w = bbm_solitary(p=1, c=1.8)
        assert w.amplitude == pytest.approx(1.2, abs=1e-15)
        assert w.width_rate == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_wave_peak_value(self):
        for w in (bbm_solitary(p=1, c=1.8, x0=-4.0), rosenau_solitary(x0=2.0)):
            for t in (0.0, 1.0, 7.5):
                peak_x = w.speed * t + w.x0
                assert evaluate_solitary(w, peak_x, t) == pytest.approx(
                    w.amplitude, abs=1e-15
                )

    def test_rosenau_constants(self):
        w = rosenau_solitary(x0=-2.5)
        assert w.speed == 0.5
        assert w.amplitude == 1.0
        assert w.width_rate == 1.0
        assert evaluate_solitary(w, -2.5, 0.0) == 1.0

    def test_higher_power_family(self):
        w = bbm_solitary(p=2, c=2.0)
        assert w.amplitude == pytest.approx(math.sqrt(2.0))
        assert w.width_rate == pytest.approx(math.sqrt(0.5))

    def test_far_field_is_zero_without_a_warning(self):
        # cosh overflows past |xi| = 710, where sech is 0: no RuntimeWarning,
        # and every value as before
        x = np.array([-3000.0, -2.0, 0.0, 1.5, 3000.0])
        for w in (bbm_solitary(), rosenau_solitary()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = evaluate_solitary(w, x, 0.0)
                assert evaluate_solitary(w, 3000.0, 0.0) == 0.0
            assert out[0] == out[-1] == 0.0
            np.testing.assert_array_equal(
                out[1:-1], w.amplitude / np.cosh(w.width_rate * x[1:-1]) ** w.sech_power)

    def test_speed_must_exceed_one(self):
        with pytest.raises(ValueError):
            bbm_solitary(p=1, c=1.0)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            bbm_solitary(p=0, c=1.5)

    def test_translation_covariance_exact(self):
        shifted = bbm_solitary(p=1, c=1.8, x0=-18.0)
        centered = bbm_solitary(p=1, c=1.8, x0=0.0)
        x = np.linspace(-30.0, 30.0, 241)
        for t in (0.0, 2.5, 20.0):
            a = evaluate_solitary(shifted, x, t)
            b = evaluate_solitary(centered, x - (-18.0), t)
            assert np.array_equal(a, b)

    def test_traveling_wave_property(self):
        w = rosenau_solitary(x0=1.0)
        x = np.linspace(-10.0, 10.0, 101)
        for delta in (0.125, 1.0, 3.5):
            a = evaluate_solitary(w, x, 4.0)
            b = evaluate_solitary(w, x - w.speed * delta, 4.0 - delta)
            assert np.max(np.abs(a - b)) < 1e-14

    def test_amplitude_monotone_in_speed(self):
        amps = [bbm_solitary(p=1, c=c).amplitude
                for c in np.linspace(1.05, 4.0, 60)]
        assert np.all(np.diff(amps) > 0)

    def test_initial_data_peak_on_grid(self):
        grid = Grid(h=0.25, n_half=120)
        state = initial_data(bbm_solitary(p=1, c=1.8, x0=-18.0), grid)
        i_peak = int(np.argmax(state.values))
        assert grid.nodes[i_peak] == -18.0
        assert state.values[i_peak] == pytest.approx(1.2, abs=1e-15)
        assert np.all(state.values > 0.0)

    def test_initial_data_rosenau(self):
        grid = Grid(h=0.05, n_half=240)
        state = initial_data(rosenau_solitary(x0=-2.5), grid)
        node = int(round((-2.5 + 12.0) / 0.05))
        assert state.values[node] == pytest.approx(1.0, abs=1e-15)


class TestDecayEnvelope:
    def test_rate_must_be_in_unit_interval(self):
        for bad in (0.0, 1.0, 1.2, -0.5):
            with pytest.raises(ValueError):
                DecayEnvelope(rate=bad)
        DecayEnvelope(rate=0.9)  # boundary-interior value is fine

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            DecayEnvelope(rate=0.5, scale=0.0)

    def test_constant_too_large_for_a_float_is_refused(self):
        # |v| e^{0.5 |x|} at |x| = 1500 is e^{750} times |v|: past the
        # largest float, so no finite envelope holds on the state
        with pytest.raises(ValueError, match="finite"):
            DecayEnvelope(rate=0.5, constant=math.inf)
        g = Grid(h=1.0, n_half=1500)
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            calibrate_envelope(SampledSequence(g, np.full(g.node_count, 1e-3)), 0.5)

    def test_zero_state_holds(self):
        g = Grid(h=0.5, n_half=10)
        report = check_decay(SampledSequence(g, np.zeros(g.node_count)),
                             DecayEnvelope(rate=0.5, constant=1.0))
        assert report.holds and report.worst_ratio == 0.0

    def test_calibration_is_tight_on_its_own_state(self):
        g = Grid(h=0.25, n_half=120)
        state = initial_data(bbm_solitary(p=1, c=1.8, x0=-18.0), g)
        env = calibrate_envelope(state, rate=0.9, scale=1.0)
        report = check_decay(state, env)
        assert report.holds
        assert report.worst_ratio == 1.0

    def test_calibrated_constant_matches_flank_scan(self):
        # For rate r below the profile's own decay rate 2B the worst node
        # sits a fixed distance from the peak where tanh(B d) = r / (2B);
        # the scan maximum is A (1 - (r/2B)^2) exp(r d).
        r, b, a = 0.5, 1.0 / 3.0, 1.2
        g = Grid(h=0.005, n_half=6000)
        state = initial_data(bbm_solitary(p=1, c=1.8, x0=0.0), g)
        env = calibrate_envelope(state, rate=r, scale=1.0)
        t = r / (2 * b)
        d = math.atanh(t) / b
        expected = a * (1 - t * t) * math.exp(r * d)
        assert env.constant == pytest.approx(expected, rel=1e-6)
        # the amplitude alone is NOT a valid envelope constant: the flank
        # node beats the peak by the same factor
        bare = DecayEnvelope(rate=r, scale=1.0, constant=a)
        report = check_decay(state, bare)
        assert not report.holds
        assert report.worst_ratio == pytest.approx(expected / a, rel=1e-6)

    def test_far_field_spike_is_caught(self):
        g = Grid(h=0.5, n_half=40)
        state = initial_data(bbm_solitary(p=1, c=1.8, x0=0.0), g)
        env = calibrate_envelope(state, rate=0.5, scale=1.0)
        spiked = state.values.copy()
        spiked[-3] += 1.0  # far-field bump at x = 18.5
        report = check_decay(SampledSequence(g, spiked), env)
        assert not report.holds
        assert report.worst_index == g.n_half - 2
        assert report.worst_ratio > 1.0

    def test_scale_stretches_envelope(self):
        g = Grid(h=0.5, n_half=20)
        state = initial_data(rosenau_solitary(x0=0.0), g)
        narrow = calibrate_envelope(state, rate=0.9, scale=1.0)
        wide = calibrate_envelope(state, rate=0.9, scale=math.sqrt(2.0))
        assert wide.constant < narrow.constant

    def test_problem_scale_is_the_kernel_tails_decay_length(self):
        triangle = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        custom = custom_problem(triangle, Nonlinearity.bbm(1), np.zeros_like)
        assert bbm_problem().envelope_scale == 1.0
        assert rosenau_problem().envelope_scale == math.sqrt(2.0)
        assert custom.envelope_scale == 1.0

    def test_zero_state_calibration(self):
        g = Grid(h=0.5, n_half=5)
        env = calibrate_envelope(SampledSequence(g, np.zeros(g.node_count)),
                                 rate=0.5)
        assert env.constant == 1.0
        assert check_decay(SampledSequence(g, np.zeros(g.node_count)), env).holds
