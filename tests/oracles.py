"""Closed-form oracles of the truncated system, shared by the test modules."""

import numpy as np


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
