"""Convolution kernels: a table of values or a geometric tail.

A kernel is given by exactly one of a vectorized ``evaluate`` or a tail
``(a, lambda)``.  A tail kernel's values are derived from the tail,
``beta(x) = Re(a e^{lambda |x|})``, so its values and its tail cannot
disagree; both built-in kernels are tail kernels.

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


@functools.cache
def _tail_values(a, lam):
    # one function per tail, so that kernels with equal tails compare equal
    return lambda x: np.real(a * np.exp(lam * np.abs(x)))


@dataclass(frozen=True)
class Kernel:
    """A convolution kernel, given by exactly one of its two fields.

    Attributes
    ----------
    evaluate : callable
        Vectorized point evaluation ``x -> beta(x)``; derived from ``tail``
        when the kernel is built from one.
    tail : (a, lambda) or None
        Geometric tail with ``Re lambda < 0``: the kernel is ``beta(x) =
        Re(a e^{lambda |x|})``, whose systems take the O(N) tail path at
        every N and refuse a mesh with ``h |Re lambda| > 8``.
    """

    evaluate: Callable[[np.ndarray], np.ndarray] | None = None
    tail: tuple[complex, complex] | None = None

    def __post_init__(self):
        if (self.evaluate is None) == (self.tail is None):
            raise ValueError("a kernel takes exactly one of evaluate and tail")
        if self.tail is not None:
            a, lam = self.tail
            if not (np.isfinite(a) and np.isfinite(lam) and lam.real < 0):
                raise ValueError("a tail needs finite a and lambda with Re lambda < 0")
            object.__setattr__(self, "evaluate", _tail_values(a, lam))


def bbm_kernel() -> Kernel:
    """Exponential kernel ``beta(x) = exp(-|x|) / 2``.

    Green's function of ``1 - d^2/dx^2``; tail ``(a, lambda) = (1/2, -1)``.
    """
    return Kernel(tail=(0.5, -1.0))


def rosenau_kernel() -> Kernel:
    """Oscillatory-exponential kernel of ``1 + d^4/dx^4``.

    ``beta(x) = exp(-|x|/sqrt2) (cos(|x|/sqrt2) + sin(|x|/sqrt2)) / (2 sqrt2)``,
    the tail ``(a, lambda) = ((1 - i) / (2 sqrt2), (-1 + i) / sqrt2)``.
    The kernel changes sign but integrates to exactly 1.
    """
    return Kernel(tail=((1 - 1j) / (2.0 * _SQRT2), (-1 + 1j) / _SQRT2))


def tabulated_kernel(nodes, values) -> Kernel:
    """Kernel defined by linear interpolation of ``(nodes, values)`` samples.

    Evaluates to zero outside ``[nodes[0], nodes[-1]]``.  A table mirrored
    about 0 is evaluated at ``|x|``, so it is exactly even.  A tabulated
    kernel has no tail, so large grids take the FFT path.
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
    # left/right give 0 strictly outside the closed support
    table = functools.partial(np.interp, xp=nodes.copy(), fp=values.copy(), left=0.0, right=0.0)
    if np.array_equal(nodes, -nodes[::-1]) and np.array_equal(values, values[::-1]):
        # np.interp evaluates x and -x by different formulas; |x| makes a mirrored table even
        return Kernel(evaluate=lambda x: table(np.abs(x)))
    return Kernel(evaluate=table)


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
