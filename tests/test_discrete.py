"""Grid, sampled sequences and sampling, plus the discrete operators the
truncated system applies to them: the convolution, the kernel's central
differences and the rectangle-sum lattice quadrature of sampled functions."""

import math

import numpy as np
import pytest

from nlwave import (
    Grid,
    Kernel,
    Nonlinearity,
    SampledSequence,
    TruncatedSystem,
    bbm_kernel,
    build_system,
    restrict,
    rosenau_kernel,
    tabulated_kernel,
)
from nlwave.discrete import MAX_N_HALF
from nlwave.system import FAST_CONV_MIN_N
from oracles import as_table, direct_rhs, fit_observed_order


def convolution_system(w, h):
    """The truncated system of ``w`` on lags ``-N..N`` (zero beyond) as the
    stencil and ``f(u) = u``, on the path it picks for a table."""
    n = (w.size - 1) // 2
    return TruncatedSystem(grid=Grid(h=h, n_half=n), stencil=np.pad(w, n),
                           nonlinearity=Nonlinearity(((1, 1.0),)),
                           blow_up_threshold=math.inf)


def convolve(w, v, h):
    """``(w * v)_i = sum_j h w_{i-j} v_j`` as the truncated system computes it."""
    return -convolution_system(w, h).rhs_values(v)


def central_differences(function, grid):
    """``(function((k+1)h) - function((k-1)h)) / 2h`` for lags ``-2N..2N``,
    the stencil ``build_system`` samples from a kernel."""
    return build_system(Kernel(evaluate=function), grid,
                        Nonlinearity(((1, 1.0),))).stencil


def rectangle_defect(function, h, reference):
    """``|reference - sum_i h function(x_i)|`` on the half-width-40 grid."""
    grid = Grid(h=h, n_half=int(round(40.0 / h)))
    return abs(reference - h * float(np.sum(restrict(function, grid).values)))


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

    def test_half_width_is_a_whole_number(self):
        # a fractional N would put nodes at half-integers and fail only later,
        # where integrate sizes its arrays
        for n in (2.5, 1.5, math.nan, math.inf, None, "2"):
            with pytest.raises(ValueError, match="whole number"):
                Grid(h=0.5, n_half=n)
        for n in (2.0, np.int64(2), np.float64(2.0)):
            g = Grid(h=0.5, n_half=n)
            assert type(g.n_half) is int and type(g.node_count) is int
            assert g == Grid(h=0.5, n_half=2) and g.node_count == 5


class TestSampledSequence:
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

    def test_one_call_on_the_nodes(self):
        g, calls = Grid(h=0.5, n_half=3), []

        def square(x):
            calls.append(np.shape(x))
            return x * x

        np.testing.assert_array_equal(restrict(square, g).values, g.nodes**2)
        assert calls == [(g.node_count,)]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="expected 3 values"):
            restrict(lambda x: x[:, None], Grid(h=1.0, n_half=1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            restrict(lambda x: np.full_like(x, np.inf), Grid(h=1.0, n_half=1))


class TestDiscreteConvolution:
    def test_delta_identity(self):
        g = Grid(h=0.5, n_half=8)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(g.node_count)
        delta = np.zeros(g.node_count)
        delta[g.n_half] = 1.0 / g.h
        out = convolve(delta, v, g.h)
        np.testing.assert_allclose(out, v, rtol=0, atol=1e-15)

    def test_indicator_example(self):
        w = np.array([0, 0, 1, 1, 1, 0, 0], dtype=float)
        v = np.array([0, 0, 0, 1, 0, 0, 0], dtype=float)
        out = convolve(w, v, 0.5)
        np.testing.assert_allclose(out, [0, 0, 0.5, 0.5, 0.5, 0, 0])

    @pytest.mark.parametrize(
        "n_half, fast, seed, tol",
        [
            pytest.param(64, False, 20240502, 1e-12, id="False"),
            pytest.param(FAST_CONV_MIN_N, True, 20240502, 1e-12, id="True"),
            pytest.param(24, False, 314, 1e-13, id="False-n24"),
        ],
    )
    def test_matches_double_loop_oracle(self, n_half, fast, seed, tol):
        # N decides whether the FFT path runs
        g = Grid(h=0.25, n_half=n_half)
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1, 1, g.node_count)
        v = rng.uniform(-1, 1, g.node_count)
        system = convolution_system(w, g.h)
        assert system.use_fast == fast
        expected = conv_oracle(w, v, g.h)
        assert np.max(np.abs(-system.rhs_values(v) - expected)) < tol

    def test_fast_equals_direct(self):
        g = Grid(h=0.1, n_half=FAST_CONV_MIN_N)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(g.node_count)
        v = rng.standard_normal(g.node_count)
        system = convolution_system(w, g.h)
        assert system.convolution == "fft"
        assert np.max(np.abs(system.rhs_values(v) - direct_rhs(system, v))) < 1e-12

    def test_commutative_and_bilinear(self):
        g = Grid(h=0.5, n_half=20)
        rng = np.random.default_rng(3)
        w = rng.standard_normal(g.node_count)
        v = rng.standard_normal(g.node_count)
        u = rng.standard_normal(g.node_count)
        wv = convolve(w, v, g.h)
        vw = convolve(v, w, g.h)
        assert np.max(np.abs(wv - vw)) < 1e-12
        lhs = convolve(w, 2.0 * v + 3.0 * u, g.h)
        rhs = 2.0 * wv + 3.0 * convolve(w, u, g.h)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_young_inequality(self):
        # max |rhs| <= sum_k h |stencil_k| * max |f(v)|, the bound behind
        # the stencil-norm stability argument, on every convolution path:
        # rosenau's tail, and its sampled stencil as a table's, direct at
        # N = 40 and FFT at FAST_CONV_MIN_N
        rng = np.random.default_rng(5)
        for n in (40, FAST_CONV_MIN_N):
            g = Grid(h=0.2, n_half=n)
            tail = build_system(rosenau_kernel(), g, Nonlinearity.rosenau())
            table = as_table(tail)
            assert table.convolution == ("direct" if n < FAST_CONV_MIN_N else "fft")
            for system in (tail, table):
                for _ in range(20):
                    v = rng.uniform(-1, 1, g.node_count)
                    fv = system.nonlinearity.evaluate_values(v)
                    norm = g.h * float(np.sum(np.abs(system.stencil)))
                    bound = norm * float(np.max(np.abs(fv)))
                    rhs = system.rhs_values(v)
                    assert float(np.max(np.abs(rhs))) <= bound * (1 + 1e-12)


class TestCentralDifference:
    def test_constant_is_flat_inside(self):
        g = Grid(h=0.5, n_half=5)
        d = central_differences(lambda x: np.full_like(x, 3.0), g)
        assert np.all(d == 0.0)

    def test_exact_on_quadratic(self):
        g = Grid(h=0.1, n_half=30)
        d = central_differences(lambda x: x**2, g)
        lags = np.arange(-2 * g.n_half, 2 * g.n_half + 1) * g.h
        np.testing.assert_allclose(d, 2.0 * lags, rtol=0, atol=1e-12)

    def test_exact_on_affine(self):
        g = Grid(h=0.25, n_half=10)
        d = central_differences(lambda x: 3.0 * x - 1.0, g)
        np.testing.assert_allclose(d, 3.0, rtol=0, atol=1e-12)

    def test_sine_second_order_bound(self):
        # third-derivative bound: |D sin - cos| <= h^2/6 at every lag
        for h in (0.4, 0.2, 0.1, 0.05):
            g = Grid(h=h, n_half=int(round(2.0 / h)))
            d = central_differences(np.sin, g)
            lags = np.arange(-2 * g.n_half, 2 * g.n_half + 1) * h
            assert np.max(np.abs(d - np.cos(lags))) <= h * h / 6.0

    def test_boundary_uses_zero_padding(self):
        # a tabulated kernel is zero beyond its support, so the differences
        # across the support ends read that zero extension
        kernel = tabulated_kernel([-1.0, 0.0, 1.0], [2.0, 0.0, 4.0])
        d = central_differences(kernel.evaluate, Grid(h=1.0, n_half=1))
        np.testing.assert_allclose(d, [1.0, 0.0, 1.0, 0.0, -2.0])


class TestQuadratureProbe:
    """Rectangle sums ``sum_i h w(x_i)`` of sampled functions."""

    def test_bbm_kernel_closed_form(self):
        # The lattice sum of exp(-|x|)/2 has the closed form (h/2) coth(h/2);
        # the truncation tail at half-width 40 sits below 1e-12.
        for h in (0.4, 0.2, 0.1, 0.05):
            err = rectangle_defect(bbm_kernel().evaluate, h, 1.0)
            exact = (h / 2.0) / math.tanh(h / 2.0) - 1.0
            assert err == pytest.approx(exact, abs=1e-12)

    def test_bbm_kernel_observed_order(self):
        # The kink sits on a grid node, so its linear-order term cancels by
        # symmetry; the fit reports quadratic but only >= 1 is guaranteed.
        hs = (0.4, 0.2, 0.1, 0.05)
        errs = [rectangle_defect(bbm_kernel().evaluate, h, 1.0) for h in hs]
        order = fit_observed_order(hs, errs)
        assert order >= 1.0
        assert order == pytest.approx(2.0, abs=0.05)

    def test_shifted_kink_first_order_guarantee(self):
        hs = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
        errs = [rectangle_defect(lambda x: 0.5 * np.exp(-np.abs(x - 0.3)), h, 1.0)
                for h in hs]
        assert fit_observed_order(hs, errs) >= 1.0

    def test_gaussian_at_machine_floor(self):
        # Full-line lattice sums of analytic integrands converge faster than
        # any power of h; every defect is pure rounding noise.
        for h in (0.4, 0.2, 0.1):
            err = rectangle_defect(lambda x: np.exp(-(x**2)), h, math.sqrt(math.pi))
            assert err < 1e-13
