"""Kernels given by a tail or by a table, and their evaluation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from nlwave import (
    Grid,
    Kernel,
    Nonlinearity,
    build_system,
    bbm_kernel,
    kernel_from_file,
    restrict,
    rosenau_kernel,
    tabulated_kernel,
)

SQRT2 = math.sqrt(2.0)


def bbm_closed_form(x):
    return 0.5 * np.exp(-np.abs(x))


def rosenau_closed_form(x):
    a = np.abs(x) / SQRT2
    return np.exp(-a) * (np.cos(a) + np.sin(a)) / (2.0 * SQRT2)


def stencil_norm(kernel, h, n_half):
    """Mesh-weighted stencil norm ``sum_k h |Dbeta_h(k)|`` of a built system."""
    system = build_system(kernel, Grid(h=h, n_half=n_half), Nonlinearity(((1, 1.0),)))
    return h * float(np.sum(np.abs(system.stencil)))


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
        assert [f.name for f in dataclasses.fields(k)] == ["evaluate", "tail"]
        assert k.tail == (0.5, -1.0)
        assert k == bbm_kernel() and k.evaluate is bbm_kernel().evaluate

    def test_range_and_monotonicity(self):
        k = bbm_kernel()
        x = np.linspace(0.0, 40.0, 2001)
        v = k.evaluate(x)
        assert np.all(v > 0.0) and np.all(v <= 0.5)
        assert np.all(np.diff(v) <= 0.0)

    def test_derivative_tv_quadrature_oracle(self):
        # |beta'| = beta away from the origin, so |mu|(R) = integral of beta,
        # which is 1, the bound of criterion 4
        k = bbm_kernel()
        val, _ = quad(lambda x: float(k.evaluate(x)), 0, 60, limit=200)
        assert abs(2 * val - 1.0) < 1e-9


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
        # The total variation of beta', the bound of criterion 4, by
        # piecewise adaptive quadrature between the sign changes of the
        # integrand: beta' = Re(a lambda e^{lambda x}) for x > 0.
        a, lam = rosenau_kernel().tail

        def dbeta_abs(x):
            return abs((a * lam * np.exp(lam * x)).real)

        def integral(f, zeros):
            pts = [0.0] + list(zeros) + [120.0]
            return 2 * sum(
                quad(f, lo, hi, limit=300)[0] for lo, hi in zip(pts, pts[1:])
            )

        z_mu = [SQRT2 * math.pi * (i + 1) for i in range(26)]
        assert integral(dbeta_abs, z_mu) == pytest.approx(
            SQRT2 / 2 / math.tanh(math.pi / 2), abs=1e-9
        )


CLOSED_FORMS = {bbm_kernel(): bbm_closed_form, rosenau_kernel(): rosenau_closed_form}


class TestTail:
    @pytest.mark.parametrize("kernel", [bbm_kernel(), rosenau_kernel()])
    def test_declared_tail_is_the_kernel_for_positive_x(self, kernel):
        # the values derived from the tail are the closed forms, on both
        # sides of the origin; bbm's real tail reproduces them bit for bit
        x = np.linspace(-30.0, 30.0, 601)
        closed = CLOSED_FORMS[kernel](x)
        np.testing.assert_allclose(kernel.evaluate(x), closed, rtol=1e-14, atol=1e-17)
        if kernel == bbm_kernel():
            np.testing.assert_array_equal(kernel.evaluate(x), closed)

    def test_tabulated_kernels_declare_none(self):
        assert tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]).tail is None

    @pytest.mark.parametrize("tail", [(0.5, 0.0), (0.5, 1.0), (0.5, 2j),
                                      (math.nan, -1.0), (math.inf, -1.0),
                                      (0.5, complex(-math.inf, 1.0)),
                                      (0.5, complex(-1.0, math.nan))])
    def test_refuses_a_tail_that_does_not_decay_or_is_not_finite(self, tail):
        with pytest.raises(ValueError, match="Re lambda < 0"):
            Kernel(tail=tail)

    def test_refuses_neither_or_both_of_evaluate_and_tail(self):
        with pytest.raises(ValueError, match="exactly one"):
            Kernel()
        with pytest.raises(ValueError, match="exactly one"):
            Kernel(evaluate=bbm_closed_form, tail=(0.5, -1.0))
        # a tail kernel's values are derived from it, so replacing them is
        # giving both
        with pytest.raises(ValueError, match="exactly one"):
            dataclasses.replace(bbm_kernel(), evaluate=bbm_closed_form)


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

    @pytest.mark.parametrize("h", [1 / 64, 0.03, 0.1])
    def test_mirrored_table_gives_an_exactly_odd_stencil(self, h):
        # np.interp evaluates x and -x by different formulas, which left the
        # central lag of such a stencil at 7.1e-15 for h = 1/64
        half, top = np.array([0.3, 0.7, 1.1, 2.0]), np.array([0.6, -0.2, 0.4, 0.0])
        k = tabulated_kernel(np.r_[-half[::-1], 0.0, half], np.r_[top[::-1], 1.0, top])
        stencil = build_system(k, Grid(h=h, n_half=40), Nonlinearity.bbm(1)).stencil
        np.testing.assert_array_equal(stencil, -stencil[::-1])

    def test_vectorized_evaluation(self):
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        out = k.evaluate(np.array([-2.0, -0.5, 0.0, 0.5, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_default_derivative_tv_from_table(self):
        # The stencil norm is at most the total variation of beta' read
        # from the table: slopes +-1 over unit segments plus zero endpoint
        # jumps, 2 for both tables; the flat table's reaches it.
        k = tabulated_kernel([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        k2 = tabulated_kernel([0.0, 1.0], [1.0, 1.0])
        for h in (0.5, 0.25, 0.1, 0.03):
            n = int(round(3.0 / h))
            assert stencil_norm(k, h, n) <= 2.0 + 1e-12
            assert stencil_norm(k2, h, n) <= 2.0 + 1e-12
        assert stencil_norm(k2, 0.25, 12) == 2.0

    def test_tall_top_hat_builds(self):
        # its stencil norm, 2e8, is the table's total variation of beta';
        # no bound on that norm refuses the build by rounding
        k = tabulated_kernel([-0.3, 0.3], [1e8, 1e8])
        assert stencil_norm(k, 0.3, 8) == pytest.approx(2e8, rel=1e-15)

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
        np.testing.assert_array_equal(k.evaluate(np.array([-1.0, -0.5, 0.0, 0.5, 1.0])),
                                      [0.0, 0.5, 1.0, 0.5, 0.0])
        assert k.tail is None

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
