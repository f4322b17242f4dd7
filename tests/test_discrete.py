"""Grid, sampled sequences, discrete convolution, differences and norms."""

import math

import numpy as np
import pytest

from nlwave import (
    Grid,
    SampledSequence,
    bbm_kernel,
    central_difference,
    discrete_convolution,
    lp_norm,
    quadrature_error_probe,
    restrict,
    rosenau_kernel,
    fit_observed_order,
)
from nlwave.discrete import MAX_N_HALF, fft_convolve


def conv_oracle(w, v, h):
    """Literal double-loop truncated convolution, the reference semantics."""
    n = (len(w) - 1) // 2
    out = np.zeros(2 * n + 1)
    for i in range(-n, n + 1):
        acc = 0.0
        for j in range(-n, n + 1):
            k = i - j
            if -n <= k <= n:
                acc += w[k + n] * v[j + n]
        out[i + n] = h * acc
    return out


class TestGrid:
    def test_nodes(self):
        g = Grid(h=0.5, n_half=2)
        np.testing.assert_allclose(g.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert g.node_count == 5
        assert g.half_width == 1.0

    def test_uniform_spacing(self):
        g = Grid(h=0.1, n_half=50)
        assert np.allclose(np.diff(g.nodes), g.h, rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(h=0.0, n_half=3)
        with pytest.raises(ValueError):
            Grid(h=-1.0, n_half=3)
        with pytest.raises(ValueError):
            Grid(h=0.5, n_half=0)
        # the size ceiling is checked on construction; nothing is allocated
        assert Grid(h=0.5, n_half=MAX_N_HALF).node_count == 2 * MAX_N_HALF + 1
        with pytest.raises(ValueError):
            Grid(h=0.5, n_half=MAX_N_HALF + 1)


class TestSampledSequence:
    def test_signed_indexing_with_zero_padding(self):
        s = SampledSequence(Grid(h=1.0, n_half=1), [1.0, 2.0, 3.0])
        assert s[-1] == 1.0 and s[0] == 2.0 and s[1] == 3.0
        assert s[2] == 0.0 and s[-5] == 0.0

    def test_value_semantics(self):
        buf = np.ones(3)
        s = SampledSequence(Grid(h=1.0, n_half=1), buf)
        buf[0] = 99.0
        assert s.values[0] == 1.0

    def test_rejects_bad_values(self):
        g = Grid(h=1.0, n_half=1)
        with pytest.raises(ValueError):
            SampledSequence(g, [1.0, 2.0])
        with pytest.raises(ValueError):
            SampledSequence(g, [1.0, np.nan, 2.0])


class TestRestrict:
    def test_zero_function(self):
        s = restrict(lambda x: np.zeros_like(x), Grid(h=0.3, n_half=4))
        assert np.all(s.values == 0.0)

    def test_bbm_kernel_small_grid(self):
        s = restrict(bbm_kernel().evaluate, Grid(h=1.0, n_half=1))
        e = 0.5 * math.exp(-1.0)
        np.testing.assert_allclose(s.values, [e, 0.5, e], rtol=0, atol=0)

    def test_identity_samples(self):
        s = restrict(lambda x: x, Grid(h=0.5, n_half=2))
        np.testing.assert_allclose(s.values, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_scalar_only_callable(self):
        s = restrict(lambda x: float(x) ** 2, Grid(h=1.0, n_half=1))
        np.testing.assert_allclose(s.values, [1.0, 0.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            restrict(lambda x: np.full_like(x, np.inf), Grid(h=1.0, n_half=1))


class TestDiscreteConvolution:
    def test_delta_identity(self):
        g = Grid(h=0.5, n_half=8)
        rng = np.random.default_rng(7)
        v = SampledSequence(g, rng.standard_normal(g.node_count))
        delta = np.zeros(g.node_count)
        delta[g.n_half] = 1.0 / g.h
        w = SampledSequence(g, delta)
        out = discrete_convolution(w, v)
        np.testing.assert_allclose(out.values, v.values, rtol=0, atol=1e-15)

    def test_indicator_example(self):
        g = Grid(h=0.5, n_half=3)
        w = SampledSequence(g, [0, 0, 1, 1, 1, 0, 0])
        v = SampledSequence(g, [0, 0, 0, 1, 0, 0, 0])
        out = discrete_convolution(w, v)
        np.testing.assert_allclose(out.values, [0, 0, 0.5, 0.5, 0.5, 0, 0])

    @pytest.mark.parametrize(
        "fast, n_half, seed, tol",
        [
            pytest.param(False, 64, 20240502, 1e-12, id="False"),
            pytest.param(True, 64, 20240502, 1e-12, id="True"),
            pytest.param(None, 64, 20240502, 1e-12, id="None"),
            pytest.param(False, 24, 314, 1e-13, id="False-n24"),
        ],
    )
    def test_matches_double_loop_oracle(self, fast, n_half, seed, tol):
        g = Grid(h=0.25, n_half=n_half)
        rng = np.random.default_rng(seed)
        w = SampledSequence(g, rng.uniform(-1, 1, g.node_count))
        v = SampledSequence(g, rng.uniform(-1, 1, g.node_count))
        expected = conv_oracle(w.values, v.values, g.h)
        out = discrete_convolution(w, v, fast=fast)
        assert np.max(np.abs(out.values - expected)) < tol

    def test_fast_equals_direct(self):
        g = Grid(h=0.1, n_half=100)
        rng = np.random.default_rng(11)
        w = SampledSequence(g, rng.standard_normal(g.node_count))
        v = SampledSequence(g, rng.standard_normal(g.node_count))
        a = discrete_convolution(w, v, fast=True)
        b = discrete_convolution(w, v, fast=False)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_commutative_and_bilinear(self):
        g = Grid(h=0.5, n_half=20)
        rng = np.random.default_rng(3)
        w = SampledSequence(g, rng.standard_normal(g.node_count))
        v = SampledSequence(g, rng.standard_normal(g.node_count))
        u = SampledSequence(g, rng.standard_normal(g.node_count))
        wv = discrete_convolution(w, v).values
        vw = discrete_convolution(v, w).values
        assert np.max(np.abs(wv - vw)) < 1e-12
        lhs = discrete_convolution(
            w, SampledSequence(g, 2.0 * v.values + 3.0 * u.values)
        ).values
        rhs = 2.0 * wv + 3.0 * discrete_convolution(w, u).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_young_inequality(self):
        g = Grid(h=0.2, n_half=40)
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = SampledSequence(g, rng.standard_normal(g.node_count))
            v = SampledSequence(g, rng.standard_normal(g.node_count))
            conv = discrete_convolution(w, v)
            bound = lp_norm(w, 1) * lp_norm(v, math.inf)
            assert lp_norm(conv, math.inf) <= bound * (1 + 1e-12)

    def test_grid_mismatch(self):
        a = SampledSequence(Grid(h=0.5, n_half=2), np.ones(5))
        b = SampledSequence(Grid(h=0.25, n_half=2), np.ones(5))
        with pytest.raises(ValueError):
            discrete_convolution(a, b)

    def test_fft_convolve_matches_numpy(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(37)
        b = rng.standard_normal(23)
        np.testing.assert_allclose(
            fft_convolve(a, b), np.convolve(a, b), rtol=0, atol=1e-12
        )


class TestCentralDifference:
    def test_constant_is_flat_inside(self):
        g = Grid(h=0.5, n_half=5)
        d = central_difference(SampledSequence(g, np.full(g.node_count, 3.0)))
        assert np.all(d.values[1:-1] == 0.0)

    def test_exact_on_quadratic(self):
        g = Grid(h=0.1, n_half=30)
        d = central_difference(restrict(lambda x: x**2, g))
        np.testing.assert_allclose(d.values[1:-1], 2.0 * g.nodes[1:-1],
                                   rtol=0, atol=1e-12)

    def test_exact_on_affine(self):
        g = Grid(h=0.25, n_half=10)
        d = central_difference(restrict(lambda x: 3.0 * x - 1.0, g))
        np.testing.assert_allclose(d.values[1:-1], 3.0, rtol=0, atol=1e-12)

    def test_sine_second_order_bound(self):
        # third-derivative bound: |D sin - cos| <= h^2/6 at interior nodes
        for h in (0.4, 0.2, 0.1, 0.05):
            g = Grid(h=h, n_half=int(round(4.0 / h)))
            d = central_difference(restrict(np.sin, g))
            err = np.max(np.abs(d.values[1:-1] - np.cos(g.nodes[1:-1])))
            assert err <= h * h / 6.0

    def test_boundary_uses_zero_padding(self):
        g = Grid(h=1.0, n_half=1)
        d = central_difference(SampledSequence(g, [2.0, 0.0, 4.0]))
        np.testing.assert_allclose(d.values, [0.0, 1.0, 0.0])


class TestLpNorm:
    def test_zero(self):
        s = SampledSequence(Grid(h=0.5, n_half=2), np.zeros(5))
        for p in (1, 2, math.inf):
            assert lp_norm(s, p) == 0.0

    def test_single_entry_l1(self):
        g = Grid(h=0.5, n_half=2)
        v = np.zeros(5)
        v[1] = -3.0
        assert lp_norm(SampledSequence(g, v), 1) == 0.5 * 3.0

    def test_sup_norm(self):
        s = SampledSequence(Grid(h=0.5, n_half=1), [1.0, 1.0, 1.0])
        assert lp_norm(s, math.inf) == 1.0

    def test_l2(self):
        s = SampledSequence(Grid(h=0.25, n_half=1), [0.0, 2.0, 0.0])
        assert lp_norm(s, 2) == pytest.approx(1.0)

    def test_invalid_p(self):
        s = SampledSequence(Grid(h=0.5, n_half=1), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            lp_norm(s, 3)


class TestQuadratureProbe:
    def test_bbm_kernel_closed_form(self):
        # The lattice sum of exp(-|x|)/2 has the closed form (h/2) coth(h/2);
        # the truncation tail at half-width 40 sits below 1e-12.
        for h in (0.4, 0.2, 0.1, 0.05):
            g = Grid(h=h, n_half=int(round(40.0 / h)))
            err = quadrature_error_probe(bbm_kernel().evaluate, g, 1.0)
            exact = (h / 2.0) / math.tanh(h / 2.0) - 1.0
            assert err == pytest.approx(exact, abs=1e-12)

    def test_bbm_kernel_observed_order(self):
        # The kink sits on a grid node, so its linear-order term cancels by
        # symmetry; the fit reports quadratic but only >= 1 is guaranteed.
        hs = (0.4, 0.2, 0.1, 0.05)
        errs = [
            quadrature_error_probe(
                bbm_kernel().evaluate, Grid(h=h, n_half=int(round(40.0 / h))), 1.0
            )
            for h in hs
        ]
        order = fit_observed_order(hs, errs)
        assert order >= 1.0
        assert order == pytest.approx(2.0, abs=0.05)

    def test_shifted_kink_first_order_guarantee(self):
        hs = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
        errs = [
            quadrature_error_probe(
                lambda x: 0.5 * np.exp(-np.abs(x - 0.3)),
                Grid(h=h, n_half=int(round(40.0 / h))),
                1.0,
            )
            for h in hs
        ]
        assert fit_observed_order(hs, errs) >= 1.0

    def test_gaussian_at_machine_floor(self):
        # Full-line lattice sums of analytic integrands converge faster than
        # any power of h; every probe value is pure rounding noise.
        for h in (0.4, 0.2, 0.1):
            g = Grid(h=h, n_half=int(round(40.0 / h)))
            err = quadrature_error_probe(
                lambda x: np.exp(-(x**2)), g, math.sqrt(math.pi)
            )
            assert err < 1e-13

    def test_stencil_norm_bound(self):
        # mesh-weighted l1 norm of the kernel's central differences never
        # exceeds the first-derivative total variation
        for kernel in (bbm_kernel(), rosenau_kernel()):
            for h in (0.5, 0.25, 0.1, 0.05):
                g = Grid(h=h, n_half=int(round(40.0 / h)))
                d = central_difference(restrict(kernel.evaluate, g))
                assert lp_norm(d, 1) <= kernel.derivative_total_variation + 1e-10
