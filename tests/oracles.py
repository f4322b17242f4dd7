"""Closed-form oracles of the truncated system, the direct reference sum
both convolution paths are checked against and a tail kernel's stencil as a
table, the even kernels and polynomials the property tests draw, and the
observed-order fit, shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from nlwave import Kernel, Nonlinearity, TruncatedSystem, tabulated_kernel
from nlwave.system import convolve_rhs_direct


@st.composite
def even_kernels(draw):
    """An even kernel and a mesh size h: a tail Re(a e^{lambda |x|}) with
    h |Re lambda| <= 8, or a table mirrored about 0."""
    if draw(st.booleans()):
        a = draw(st.floats(0.1, 2.0)) * np.exp(1j * draw(st.floats(-math.pi, math.pi)))
        lam = complex(-draw(st.floats(0.01, 10.0)), draw(st.floats(-10.0, 10.0)))
        return Kernel(tail=(a, lam)), draw(st.floats(1e-3, 8.0)) / -lam.real
    # values[0] at 0, values[1:] at xs and at -xs
    xs = np.sort(draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6, unique=True)))
    values = np.divide(draw(st.lists(st.integers(-20, 20), min_size=xs.size + 1,
                                     max_size=xs.size + 1)), 10)
    kernel = tabulated_kernel(np.r_[-xs[::-1], 0.0, xs], np.r_[values[:0:-1], values])
    return kernel, draw(st.floats(0.01, 1.0))


# f(u) = sum of 1-3 terms c u^p with p = 1..5 and |c| <= 3
nonlinearities = st.lists(st.tuples(st.integers(1, 5), st.integers(-30, 30).map(lambda c: c / 10)),
                          min_size=1, max_size=3).map(lambda terms: Nonlinearity(tuple(terms)))


def direct_rhs(system, v):
    """``-sum_j h stencil_{i-j} f(v_j)`` of a state or a stack, summed directly
    over the system's sampled stencil whatever path the system takes."""
    g = system.nonlinearity.evaluate_values(v)
    return convolve_rhs_direct(system.stencil, g, system.grid.h)


def as_table(system):
    """The system's sampled stencil with no tail, as a table's system: the
    FFT path at every N."""
    return TruncatedSystem(grid=system.grid, stencil=system.stencil,
                           nonlinearity=system.nonlinearity)


def boundary_flux(kernel, nonlinearity, state):
    """Mass flux ``h sum_i rhs_i`` of the truncated system, in closed form.

    The central-difference stencil is odd, so the sum over ``i`` telescopes
    to kernel values straddling the two domain ends:
    ``-(h/2) sum_j f(v_j) [beta((N+1-j)h) + beta((N-j)h) - beta((-N-j)h)
    - beta((-N-1-j)h)]``.  Built from the kernel and the nonlinearity alone,
    independently of the convolution, at the lags ``k h`` the stencil samples.
    """
    n, h = state.grid.n_half, state.grid.h
    lags = np.arange(2 * n, -1, -1)  # N - j for j = -N..N
    beta = kernel.evaluate
    weights = ((beta((lags + 1) * h) - beta((lags - 2 * n - 1) * h))
               + (beta(lags * h) - beta((lags - 2 * n) * h)))
    f = nonlinearity.evaluate_values(state.values)
    return -0.5 * h * float(np.sum(f * weights))


def fit_observed_order(hs, errors, noise_floor: float = 0.0) -> float:
    """Least-squares slope of log error against log h.

    Points at or below ``noise_floor`` are discarded: they measure rounding,
    not truncation.  If fewer than two points survive, the error never rose
    above the floor on the whole refinement range and the observed order is
    reported as ``inf`` (no measurable degradation).
    """
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > noise_floor
    if int(np.sum(keep)) < 2:
        return math.inf
    slope = np.polyfit(np.log(hs[keep]), np.log(errors[keep]), 1)[0]
    return float(slope)
