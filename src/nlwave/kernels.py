"""Convolution kernels: point evaluation plus the derivative total variation.

A kernel carries the total variation of its first derivative, which bounds
the stencil norm that ``build_system`` checks.

Value at a jump: both built-in kernels are continuous, so they have none.
A tabulated kernel takes its table values on the closed support interval
and 0 strictly outside it.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "bbm_kernel",
    "rosenau_kernel",
    "tabulated_kernel",
    "kernel_from_file",
]

_SQRT2 = math.sqrt(2.0)

# Rosenau metadata, precomputed once by a quadrature oracle (piecewise
# adaptive quadrature between the integrand's sign changes, cross-checked
# in the test suite against SciPy's integrate.quad and the closed form
# |mu| = sqrt(2)/2 * coth(pi/2)):
#   mu   = total variation of beta'    (beta' is absolutely continuous)
_ROSENAU_MU = 0.7709807342660168


@dataclass(frozen=True)
class Kernel:
    """A convolution kernel with its derivative total variation.

    Attributes
    ----------
    evaluate : callable
        Vectorized point evaluation ``x -> beta(x)``.
    derivative_total_variation : float
        Total variation ``|mu|(R)`` of the measure ``mu = beta'``.
    tail : (a, lambda) or None
        Geometric tail ``beta(x) = Re(a e^{lambda x})`` for ``x > 0``, with
        ``Re lambda < 0``; it lets ``build_system`` take the O(N) tail path.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative_total_variation: float
    tail: tuple[complex, complex] | None = None

    def __post_init__(self):
        # Written so that NaN fails too; inf is allowed and turns off
        # build_system's stencil-norm check.
        if not self.derivative_total_variation >= 0:
            raise ValueError("derivative total variation must be nonnegative")
        if self.tail is not None:
            a, lam = self.tail
            if not (np.isfinite(a) and np.isfinite(lam) and lam.real < 0):
                raise ValueError("a tail needs finite a and lambda with Re lambda < 0")


def _bbm_evaluate(x):
    return 0.5 * np.exp(-np.abs(x))


def _rosenau_evaluate(x):
    a = np.abs(x) / _SQRT2
    return np.exp(-a) * (np.cos(a) + np.sin(a)) / (2.0 * _SQRT2)


def bbm_kernel() -> Kernel:
    """Exponential kernel ``beta(x) = exp(-|x|) / 2``.

    Green's function of ``1 - d^2/dx^2``.  The metadata is analytic:
    ``beta' = -sign(x) beta`` so ``|mu|(R) = 1``.
    Tail ``(a, lambda) = (1/2, -1)``: ``beta(x) = e^{-x} / 2`` for ``x > 0``.
    """
    return Kernel(
        evaluate=_bbm_evaluate,
        derivative_total_variation=1.0,
        tail=(0.5, -1.0),
    )


def rosenau_kernel() -> Kernel:
    """Oscillatory-exponential kernel of ``1 + d^4/dx^4``.

    ``beta(x) = exp(-|x|/sqrt2) (cos(|x|/sqrt2) + sin(|x|/sqrt2)) / (2 sqrt2)``.
    The kernel changes sign but integrates to exactly 1.  ``_ROSENAU_MU``
    comes from the quadrature oracle documented at the top of this module.
    Tail ``(a, lambda) = ((1 - i) / (2 sqrt2), (-1 + i) / sqrt2)``:
    ``Re(a e^{lambda x})`` is ``beta(x)`` above for ``x > 0``.
    """
    return Kernel(
        evaluate=_rosenau_evaluate,
        derivative_total_variation=_ROSENAU_MU,
        tail=((1 - 1j) / (2.0 * _SQRT2), (-1 + 1j) / _SQRT2),
    )


def _piecewise_linear_tv(values):
    # Total variation of the interpolant extended by zero: interior slopes
    # plus the jumps to zero at the support endpoints.
    return abs(values[0]) + float(np.sum(np.abs(np.diff(values)))) + abs(values[-1])


def tabulated_kernel(nodes, values) -> Kernel:
    """Kernel defined by linear interpolation of ``(nodes, values)`` samples.

    Evaluates to zero outside ``[nodes[0], nodes[-1]]``.  The
    first-derivative total variation is computed exactly from the table
    (slopes plus endpoint jumps to zero).  A tabulated kernel declares no
    tail, so large grids take the FFT path.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("need at least two tabulation nodes")
    if nodes.shape != values.shape:
        raise ValueError("nodes and values must have matching lengths")
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("tabulation nodes must be strictly increasing")
    if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(values)):
        raise ValueError("tabulation data must be finite")
    return Kernel(
        # left/right give 0 strictly outside the closed support
        evaluate=functools.partial(np.interp, xp=nodes.copy(), fp=values.copy(),
                                   left=0.0, right=0.0),
        derivative_total_variation=float(_piecewise_linear_tv(values)),
    )


def kernel_from_file(path) -> Kernel:
    """Load a tabulated kernel from a two-column whitespace text file.

    Column one is the abscissa, column two the kernel value; ``#`` starts a
    comment.  Rows must be sorted by abscissa.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError(f"kernel file {path} holds no data rows")
    data = np.loadtxt(lines, comments="#", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"kernel file {path} must have exactly two columns")
    return tabulated_kernel(data[:, 0], data[:, 1])
