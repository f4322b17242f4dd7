"""Uniform grid, finite sampled sequences and the discrete operators on them.

Sequences live on the symmetric index range ``-N..N`` of a uniform grid and
are stored as flat float arrays with offset ``N`` (an internal detail).
Indices outside the range are treated as zero everywhere, which matches the
decaying-solution regime the truncated system assumes.

The discrete convolution has two interchangeable implementations: a direct
summation (``np.convolve``) and a fast path that zero-pads to the next power
of two and multiplies real FFTs.  Both compute the same linear
(non-circular) convolution.  ``fft_convolve`` is the one FFT routine; the
truncated system calls it too, with its stencil transformed once up front.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SampledSequence",
    "restrict",
    "discrete_convolution",
    "central_difference",
    "lp_norm",
    "quadrature_error_probe",
    "FAST_CONV_MIN_N",
    "MAX_N_HALF",
    "fft_convolve",
    "padded_rfft",
]

# Below this half-width the direct path beats the FFT path; both stay
# available for cross-checking.
FAST_CONV_MIN_N = 32

# Largest half-width N: the system's stencil of 4N+1 floats is then 512 MiB,
# so a larger grid is refused before anything is allocated.
MAX_N_HALF = 2**24


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid ``x_i = i h`` for ``-N <= i <= N``."""

    h: float
    n_half: int

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("mesh size h must be positive and finite")
        if not 1 <= self.n_half <= MAX_N_HALF:
            raise ValueError(f"grid half-width N must lie in [1, {MAX_N_HALF}]")

    @property
    def node_count(self) -> int:
        return 2 * self.n_half + 1

    @property
    def half_width(self) -> float:
        return self.n_half * self.h

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(-self.n_half, self.n_half + 1) * self.h


@dataclass(frozen=True, eq=False)
class SampledSequence:
    """Finite sequence of samples ``v_i`` on a grid, indexed ``-N..N``.

    Value-semantic: the array is copied on construction and should not be
    mutated afterwards.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        if values.shape != (self.grid.node_count,):
            raise ValueError(
                f"expected {self.grid.node_count} values, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sequence entries must be finite")
        object.__setattr__(self, "values", values)

    def __getitem__(self, i: int) -> float:
        """Value at signed index ``i``; zero outside ``-N..N``."""
        if abs(i) > self.grid.n_half:
            return 0.0
        return float(self.values[i + self.grid.n_half])


def restrict(function, grid: Grid) -> SampledSequence:
    """Sample a function on the grid nodes: ``(R w)_i = w(x_i)``."""
    try:
        values = np.asarray(function(grid.nodes), dtype=float)
        if values.shape != (grid.node_count,):
            raise TypeError
    except (TypeError, ValueError):
        # scalar-only callables
        values = np.array([function(x) for x in grid.nodes], dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("function produced non-finite values on the grid")
    return SampledSequence(grid, values)


def _fft_length(full: int) -> int:
    # next power of two at or above the full linear-convolution length, so
    # the cyclic transform never wraps around
    return 1 << (full - 1).bit_length()


def padded_rfft(b: np.ndarray, a_size: int) -> np.ndarray:
    """Transform of ``b`` as ``fft_convolve`` pads it for an ``a_size`` partner."""
    return np.fft.rfft(b, _fft_length(a_size + b.size - 1))


def fft_convolve(
    a: np.ndarray, b: np.ndarray, b_fft: np.ndarray | None = None
) -> np.ndarray:
    """Full linear convolution of two 1-d arrays via zero-padded real FFTs.

    Pads to the next power of two at or above ``len(a)+len(b)-1`` so the
    cyclic transform never wraps around.  ``b_fft``, if given, must be
    ``padded_rfft(b, a.size)``; it saves transforming a fixed ``b`` again.
    """
    full = a.size + b.size - 1
    nfft = _fft_length(full)
    if b_fft is None:
        b_fft = padded_rfft(b, a.size)
    return np.fft.irfft(np.fft.rfft(a, nfft) * b_fft, nfft)[:full]


def discrete_convolution(
    w: SampledSequence, v: SampledSequence, fast: bool | None = None
) -> SampledSequence:
    """Discrete convolution ``(w * v)_i = sum_j h w_{i-j} v_j`` on the grid.

    Entries of either factor outside ``-N..N`` count as zero.  ``fast``
    selects the FFT path explicitly; by default the direct path is used for
    ``N < FAST_CONV_MIN_N`` and the FFT path otherwise.
    """
    if w.grid != v.grid:
        raise ValueError("convolution factors must share one grid")
    grid = w.grid
    n = grid.n_half
    if fast is None:
        fast = n >= FAST_CONV_MIN_N
    if fast:
        full = fft_convolve(w.values, v.values)
        values = grid.h * full[n : 3 * n + 1]
    else:
        # 'same' mode of the full linear convolution is the central slice
        values = grid.h * np.convolve(w.values, v.values, mode="same")
    return SampledSequence(grid, values)


def central_difference(w: SampledSequence) -> SampledSequence:
    """Central differences ``(Dw)_i = (w_{i+1} - w_{i-1}) / 2h``.

    The neighbours just outside the range are taken as zero, consistent
    with the truncation convention.
    """
    v = w.values
    h2 = 2.0 * w.grid.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / h2
    out[0] = v[1] / h2
    out[-1] = -v[-2] / h2
    return SampledSequence(w.grid, out)


def lp_norm(w: SampledSequence, p) -> float:
    """Mesh-weighted sequence norm.

    ``p in {1, 2}`` gives ``(sum h |w_i|^p)^(1/p)``; ``p = inf`` gives the
    plain sup norm.
    """
    v = w.values
    if p == 1:
        return float(w.grid.h * np.sum(np.abs(v)))
    if p == 2:
        return float(math.sqrt(w.grid.h * np.sum(v * v)))
    if p == math.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError("p must be 1, 2 or inf")


def quadrature_error_probe(function, grid: Grid, reference: float) -> float:
    """|reference - sum_i h f(x_i)|, the rectangle-sum quadrature defect.

    The caller supplies the reference integral; the grid must be wide
    enough that the omitted tails are negligible at the accuracy being
    probed.
    """
    s = restrict(function, grid)
    return abs(reference - grid.h * float(np.sum(s.values)))
