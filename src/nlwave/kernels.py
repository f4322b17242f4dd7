"""Convolution kernels: point evaluation plus derivative-measure metadata.

A kernel carries the total variation of its first derivative (and of the
second derivative when that is a finite measure) and a declared smoothness
class.  The first-derivative total variation bounds the stencil norm that
``build_system`` checks.  The smoothness class names the convergence order
the paper proves for the kernel (linear or quadratic); it is declared by
the constructor, never inferred from samples, and no study reads it yet.

Point values follow the right-continuous convention ``beta(x) = mu((-inf, x])``
at jumps of ``beta``.  Both built-in kernels are continuous, so for them the
convention is vacuous; tabulated kernels are piecewise linear on their
support (hence continuous there) and the tabulated endpoint value is taken
on the closed support interval.
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SmoothnessClass",
    "Kernel",
    "bbm_kernel",
    "rosenau_kernel",
    "tabulated_kernel",
    "kernel_from_file",
]

_SQRT2 = math.sqrt(2.0)

# Rosenau metadata, precomputed once by a quadrature oracle (piecewise
# adaptive quadrature between the integrand's sign changes, cross-checked
# in the test suite against scipy.integrate.quad and the closed form
# |mu| = sqrt(2)/2 * coth(pi/2)):
#   mu   = total variation of beta'    (beta' is absolutely continuous)
#   nu   = total variation of beta''   (beta'' is absolutely continuous)
_ROSENAU_MU = 0.7709807342660168
_ROSENAU_NU = 0.6739164544697352


class SmoothnessClass(enum.Enum):
    """Expected discretization-error order for a kernel.

    ORDER_TWO marks kernels in W^{1,1} whose second derivative is a finite
    measure (quadratic order); ORDER_ONE marks kernels that only have a
    finite first-derivative measure (linear order).
    """

    ORDER_ONE = 1
    ORDER_TWO = 2


@dataclass(frozen=True)
class Kernel:
    """A convolution kernel with derivative-measure metadata.

    Attributes
    ----------
    evaluate : callable
        Vectorized point evaluation ``x -> beta(x)``.
    derivative_total_variation : float
        Total variation ``|mu|(R)`` of the measure ``mu = beta'``.
    smoothness_class : SmoothnessClass
        Declared error-order class.
    second_derivative_total_variation : float or None
        ``|nu|(R)`` for ``nu = beta''``; present exactly when the class is
        ORDER_TWO.
    name : str
        Short identifier used in reports.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative_total_variation: float
    smoothness_class: SmoothnessClass
    second_derivative_total_variation: float | None = None
    name: str = "kernel"

    def __post_init__(self):
        if self.derivative_total_variation < 0:
            raise ValueError("derivative total variation must be nonnegative")
        if self.smoothness_class is SmoothnessClass.ORDER_TWO:
            if self.second_derivative_total_variation is None:
                raise ValueError(
                    "ORDER_TWO kernels must carry the second-derivative "
                    "total variation"
                )
            if self.second_derivative_total_variation < 0:
                raise ValueError(
                    "second-derivative total variation must be nonnegative"
                )


def _bbm_evaluate(x):
    return 0.5 * np.exp(-np.abs(x))


def _rosenau_evaluate(x):
    a = np.abs(x) / _SQRT2
    return np.exp(-a) * (np.cos(a) + np.sin(a)) / (2.0 * _SQRT2)


def bbm_kernel() -> Kernel:
    """Exponential kernel ``beta(x) = exp(-|x|) / 2``.

    Green's function of ``1 - d^2/dx^2``.  The metadata is analytic:
    ``beta' = -sign(x) beta`` so ``|mu|(R) = 1``;
    ``beta'' = beta - delta_0`` so ``|nu|(R) = 2`` (unit point mass at the
    origin plus the density ``beta``).
    """
    return Kernel(
        evaluate=_bbm_evaluate,
        derivative_total_variation=1.0,
        smoothness_class=SmoothnessClass.ORDER_TWO,
        second_derivative_total_variation=2.0,
        name="bbm",
    )


def rosenau_kernel() -> Kernel:
    """Oscillatory-exponential kernel of ``1 + d^4/dx^4``.

    ``beta(x) = exp(-|x|/sqrt2) (cos(|x|/sqrt2) + sin(|x|/sqrt2)) / (2 sqrt2)``.
    The kernel changes sign but integrates to exactly 1.  Metadata constants
    come from the quadrature oracle documented at the top of this module.
    """
    return Kernel(
        evaluate=_rosenau_evaluate,
        derivative_total_variation=_ROSENAU_MU,
        smoothness_class=SmoothnessClass.ORDER_TWO,
        second_derivative_total_variation=_ROSENAU_NU,
        name="rosenau",
    )


class _TabulatedEvaluate:
    """Linear interpolation on the closed support, zero outside."""

    def __init__(self, nodes, values):
        self.nodes = nodes
        self.values = values

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.nodes, self.values, left=0.0, right=0.0)
        # np.interp clamps to the endpoint values outside the support;
        # force exact zeros strictly outside the closed interval.
        out = np.where((x < self.nodes[0]) | (x > self.nodes[-1]), 0.0, out)
        if out.ndim == 0:
            return float(out)
        return out


def _piecewise_linear_tv(nodes, values):
    # Total variation of the interpolant extended by zero: interior slopes
    # plus the jumps to zero at the support endpoints.
    return abs(values[0]) + float(np.sum(np.abs(np.diff(values)))) + abs(values[-1])


def _piecewise_linear_second_tv(nodes, values):
    # The zero-extended interpolant has beta' piecewise constant, so beta''
    # is a sum of point masses: slope changes at interior nodes plus the
    # slope jumps from/to zero at the support endpoints.
    slopes = np.diff(values) / np.diff(nodes)
    return abs(slopes[0]) + float(np.sum(np.abs(np.diff(slopes)))) + abs(slopes[-1])


def tabulated_kernel(
    nodes,
    values,
    smoothness_class: SmoothnessClass = SmoothnessClass.ORDER_ONE,
    name: str = "tabulated",
) -> Kernel:
    """Kernel defined by linear interpolation of ``(nodes, values)`` samples.

    Evaluates to zero outside ``[nodes[0], nodes[-1]]``.  The
    first-derivative total variation is computed exactly from the table
    (slopes plus endpoint jumps to zero).  Declaring
    ORDER_TWO requires both endpoint values to vanish, otherwise the
    zero-extension is not W^{1,1}; the second-derivative total variation is
    then the exact sum of slope-change point masses.
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
    second_tv = None
    if smoothness_class is SmoothnessClass.ORDER_TWO:
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError(
                "ORDER_TWO tabulated kernels must vanish at the support ends"
            )
        second_tv = _piecewise_linear_second_tv(nodes, values)
    return Kernel(
        evaluate=_TabulatedEvaluate(nodes.copy(), values.copy()),
        derivative_total_variation=float(_piecewise_linear_tv(nodes, values)),
        smoothness_class=smoothness_class,
        second_derivative_total_variation=second_tv,
        name=name,
    )


def kernel_from_file(path, name=None) -> Kernel:
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
    return tabulated_kernel(data[:, 0], data[:, 1], name=name or "file")
