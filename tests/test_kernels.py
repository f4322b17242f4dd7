"""Kernel evaluation and the derivative total variation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from nlwave import (
    Grid,
    Nonlinearity,
    build_system,
    bbm_kernel,
    kernel_from_file,
    restrict,
    rosenau_kernel,
    tabulated_kernel,
)

SQRT2 = math.sqrt(2.0)


def lattice_sum(kernel, h=0.002, half_width=60.0):
    n = int(round(half_width / h))
    x = np.arange(-n, n + 1) * h
    return h * float(np.sum(kernel.evaluate(x)))


class TestBBMKernel:
    def test_value_at_origin(self):
        assert bbm_kernel().evaluate(0.0) == 0.5

    def test_symmetry(self):
        k = bbm_kernel()
        for x in (0.3, 1.7, 5.0, 12.5):
            assert k.evaluate(x) == k.evaluate(-x)

    def test_metadata(self):
        k = bbm_kernel()
        assert k.derivative_total_variation == 1.0

    def test_range_and_monotonicity(self):
        k = bbm_kernel()
        x = np.linspace(0.0, 40.0, 2001)
        v = k.evaluate(x)
        assert np.all(v > 0.0) and np.all(v <= 0.5)
        assert np.all(np.diff(v) <= 0.0)

    def test_derivative_tv_quadrature_oracle(self):
        # |beta'| = beta away from the origin, so |mu|(R) = integral of beta.
        val, _ = quad(lambda x: 0.5 * math.exp(-abs(x)), 0, 60, limit=200)
        assert abs(2 * val - bbm_kernel().derivative_total_variation) < 1e-9


class TestRosenauKernel:
    def test_value_at_origin(self):
        assert rosenau_kernel().evaluate(0.0) == pytest.approx(1 / (2 * SQRT2),
                                                               abs=1e-15)

    def test_symmetry(self):
        k = rosenau_kernel()
        assert k.evaluate(2.0) == k.evaluate(-2.0)

    def test_envelope_bound(self):
        # |cos a + sin a| <= sqrt(2) makes |beta(x)| e^{|x|/sqrt2} <= 1/sqrt2.
        k = rosenau_kernel()
        x = np.linspace(-30.0, 30.0, 4001)
        assert np.all(np.abs(k.evaluate(x)) * np.exp(np.abs(x) / SQRT2)
                      <= 1 / SQRT2 + 1e-15)

    def test_plain_integral_is_one(self):
        # The kernel integrates to exactly 1 even though it changes sign.
        assert abs(lattice_sum(rosenau_kernel()) - 1.0) < 1e-6

    def test_metadata_against_quadrature_oracle(self):
        # Re-derive the frozen constant by piecewise adaptive quadrature
        # between the sign changes of the integrand.
        k = rosenau_kernel()

        def dbeta_abs(x):
            a = abs(x) / SQRT2
            return 0.5 * math.exp(-a) * abs(math.sin(a))

        def integral(f, zeros):
            pts = [0.0] + list(zeros) + [120.0]
            return 2 * sum(
                quad(f, lo, hi, limit=300)[0] for lo, hi in zip(pts, pts[1:])
            )

        z_mu = [SQRT2 * math.pi * (i + 1) for i in range(26)]
        assert integral(dbeta_abs, z_mu) == pytest.approx(
            k.derivative_total_variation, abs=1e-9
        )
        # closed form for the first-derivative total variation
        assert k.derivative_total_variation == pytest.approx(
            SQRT2 / 2 / math.tanh(math.pi / 2), abs=1e-12
        )


class TestDerivativeTotalVariation:
    @pytest.mark.parametrize("tv", [math.nan, -1.0])
    def test_refuses_nan_and_negative_values(self, tv):
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(bbm_kernel(), derivative_total_variation=tv)

    def test_bounds_the_stencil_norm_unless_infinite(self):
        # a top hat of height 5 on [-1, 1] has stencil norm 10
        kernel = tabulated_kernel([-1.0, 1.0], [5.0, 5.0])
        grid, linear = Grid(h=0.5, n_half=8), Nonlinearity(((1, 1.0),))
        assert build_system(kernel, grid, linear).stencil_l1() == 10.0
        with pytest.raises(ValueError, match="stencil norm"):
            build_system(dataclasses.replace(kernel, derivative_total_variation=1.0),
                         grid, linear)
        off = dataclasses.replace(kernel, derivative_total_variation=math.inf)
        assert build_system(off, grid, linear).stencil_l1() == 10.0


class TestTail:
    @pytest.mark.parametrize("kernel", [bbm_kernel(), rosenau_kernel()])
    def test_declared_tail_is_the_kernel_for_positive_x(self, kernel):
        a, lam = kernel.tail
        x = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(kernel.evaluate(x), np.real(a * np.exp(lam * x)),
                                   rtol=1e-14, atol=1e-17)

    def test_tabulated_kernels_declare_none(self):
        assert tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]).tail is None

    @pytest.mark.parametrize("tail", [(0.5, 0.0), (0.5, 1.0), (0.5, 2j),
                                      (math.nan, -1.0), (math.inf, -1.0),
                                      (0.5, complex(-math.inf, 1.0)),
                                      (0.5, complex(-1.0, math.nan))])
    def test_refuses_a_tail_that_does_not_decay_or_is_not_finite(self, tail):
        with pytest.raises(ValueError, match="tail"):
            dataclasses.replace(bbm_kernel(), tail=tail)


class TestTabulatedKernel:
    def test_linear_interpolation(self):
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert k.evaluate(0.5) == 0.5
        assert k.evaluate(-0.25) == 0.75

    def test_zero_outside_support(self):
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert k.evaluate(5.0) == 0.0
        assert k.evaluate(-1.0) == 0.0  # endpoint value from the table

    def test_evaluation_matches_the_masked_interpolant(self):
        # np.interp's left/right zeros leave nothing for an explicit mask of
        # the points strictly outside the support to change
        nodes, values = np.array([-1.0, 0.0, 2.0]), np.array([0.5, 1.0, -0.25])
        k = tabulated_kernel(nodes, values)
        x = np.array([-np.inf, -3.0, np.nextafter(-1.0, -2.0), -1.0, 0.5, 2.0,
                      np.nextafter(2.0, 3.0), 7.0, np.inf, np.nan])
        masked = np.where((x < nodes[0]) | (x > nodes[-1]), 0.0,
                          np.interp(x, nodes, values, left=0.0, right=0.0))
        np.testing.assert_array_equal(k.evaluate(x), masked)
        for point, expected in zip(x, masked):
            value = k.evaluate(float(point))
            assert isinstance(value, float)
            np.testing.assert_array_equal(value, expected)

    def test_vectorized_evaluation(self):
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        out = k.evaluate(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_default_derivative_tv_from_table(self):
        # slopes +-1 over unit segments plus zero endpoint jumps
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert k.derivative_total_variation == 2.0
        # nonzero endpoints add their jumps to zero
        k2 = tabulated_kernel([0.0, 1.0], [1.0, 1.0])
        assert k2.derivative_total_variation == 2.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tabulated_kernel([1.0, 0.0], [1.0, 2.0])  # unsorted
        with pytest.raises(ValueError):
            tabulated_kernel([0.0, 1.0], [1.0])  # length mismatch
        with pytest.raises(ValueError):
            tabulated_kernel([0.0], [1.0])  # too short

    def test_restriction_of_tabulated_kernel(self):
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        seq = restrict(k.evaluate, Grid(h=0.5, n_half=4))
        np.testing.assert_allclose(
            seq.values, [0, 0, 0, 0.5, 1.0, 0.5, 0, 0, 0]
        )

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text(
            "# triangular test kernel\n"
            "-1.0  0.0\n"
            " 0.0  1.0   # peak\n"
            " 1.0  0.0\n"
        )
        k = kernel_from_file(path)
        assert k.evaluate(0.5) == 0.5
        assert k.derivative_total_variation == 2.0

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 1.0 2.0\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            kernel_from_file(path)

    @pytest.mark.parametrize("text", ["", "# x value\n\n   # no rows\n"],
                             ids=["empty", "comments-only"])
    def test_load_rejects_file_without_rows(self, tmp_path, text):
        path = tmp_path / "kernel.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="holds no data rows"):
                kernel_from_file(path)
