"""The truncated convolution system dv_i/dt = -sum_j h Dbeta(x_i - x_j) f(v_j).

The spatial derivative is carried entirely by the kernel: the stencil holds
central differences of the sampled kernel over all lags ``-2N..2N``, and the
right-hand side is one discrete convolution of that stencil with ``f(v)``.
No derivative of the state ever appears, which is why the time integration
has no mesh-size stability restriction.

This module is the one place that computes that convolution.  It has two
paths that give the same values to rounding: a direct sum
(``convolve_rhs_direct``) below half-width ``FAST_CONV_MIN_N``, and above it
a product of real FFTs.  The FFT path zero-pads both factors to the next
power of two at or above the full linear length ``6N+1``, so the cyclic
transform never wraps, and transforms the stencil once when the system is
built.  The right-hand side checks only the state's length: blow-up is a
property of the trajectory, so ``integrate`` owns that rule.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .discrete import Grid, SampledSequence
from .kernels import Kernel

__all__ = [
    "BlowUpError",
    "Nonlinearity",
    "TruncatedSystem",
    "build_system",
    "discrete_mass",
    "convolve_rhs_direct",
    "DEFAULT_BLOW_UP_THRESHOLD",
    "FAST_CONV_MIN_N",
]

# Finite stand-in for the asymptotic blow-up condition limsup |v| = inf.
DEFAULT_BLOW_UP_THRESHOLD = 1e6

# Below this half-width the direct path beats the FFT path; fast_mode
# "on"/"off" force either one for cross-checking.
FAST_CONV_MIN_N = 32


class BlowUpError(RuntimeError):
    """A run's state exceeded the blow-up threshold or became non-finite."""


@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial nonlinearity ``f(u) = sum_k c_k u^{p_k}`` with f(0) = 0.

    ``terms`` is a tuple of ``(power, coefficient)`` pairs with strictly
    positive integer powers; a constant term is structurally impossible.
    """

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("nonlinearity needs at least one term")
        cleaned = []
        for power, coeff in self.terms:
            if int(power) != power or power < 1:
                raise ValueError(f"term power must be a positive integer: {power}")
            if not math.isfinite(coeff):
                raise ValueError("term coefficients must be finite")
            cleaned.append((int(power), float(coeff)))
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def bbm(cls, p: int = 1) -> "Nonlinearity":
        """``f(u) = u + u^{p+1}``, the generalized BBM nonlinearity."""
        return cls(((1, 1.0), (p + 1, 1.0)))

    @classmethod
    def rosenau(cls) -> "Nonlinearity":
        """``f(u) = u - 10 u^3 + 12 u^5``."""
        return cls(((1, 1.0), (3, -10.0), (5, 12.0)))

    def evaluate_values(self, v: np.ndarray) -> np.ndarray:
        """Entrywise evaluation on a raw array (hot path, no guards)."""
        out = np.zeros_like(v)
        for power, coeff in self.terms:
            out += coeff * v**power
        return out

    def max_abs_on_interval(self, bound: float, samples: int = 513) -> float:
        """max |f(z)| over |z| <= bound, by dense sampling."""
        if bound == 0.0:
            return 0.0
        z = np.linspace(-bound, bound, samples)
        return float(np.max(np.abs(self.evaluate_values(z))))


@dataclass(frozen=True, eq=False)
class TruncatedSystem:
    """Grid, stencil and nonlinearity bundled for right-hand-side evaluation.

    ``stencil`` holds ``Dbeta_h`` over lags ``-2N..2N`` (length 4N+1) so that
    every difference ``x_i - x_j`` of grid nodes is covered.  ``fast_mode``
    selects the convolution path: ``"auto"`` uses the FFT path from
    ``N >= FAST_CONV_MIN_N`` upward, ``"on"``/``"off"`` force it.
    """

    grid: Grid
    stencil: np.ndarray
    nonlinearity: Nonlinearity
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD
    fast_mode: str = "auto"
    _stencil_fft: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stencil = np.array(self.stencil, dtype=float, copy=True)
        n = self.grid.n_half
        if stencil.shape != (4 * n + 1,):
            raise ValueError(f"stencil must cover lags -2N..2N, need {4*n+1} entries")
        if not np.all(np.isfinite(stencil)):
            raise ValueError("stencil entries must be finite")
        if not self.blow_up_threshold > 0:
            raise ValueError("blow-up threshold must be positive")
        if self.fast_mode not in ("auto", "on", "off"):
            raise ValueError("fast_mode must be 'auto', 'on' or 'off'")
        object.__setattr__(self, "stencil", stencil)
        object.__setattr__(self, "_stencil_fft", np.fft.rfft(stencil, _fft_length(n)))

    @property
    def use_fast(self) -> bool:
        if self.fast_mode == "on":
            return True
        if self.fast_mode == "off":
            return False
        return self.grid.n_half >= FAST_CONV_MIN_N

    def stencil_l1(self) -> float:
        """Mesh-weighted stencil norm ``sum_k h |Dbeta_h(k)|``."""
        return float(self.grid.h * np.sum(np.abs(self.stencil)))

    def rhs_values(self, v: np.ndarray) -> np.ndarray:
        """``f(v)``, then the convolution; unguarded but for the state's length."""
        if v.shape != (self.grid.node_count,):
            raise ValueError(f"state shape {v.shape} does not match the grid")
        g = self.nonlinearity.evaluate_values(v)
        n = self.grid.n_half
        if self.use_fast:
            nfft = _fft_length(n)
            conv = np.fft.irfft(np.fft.rfft(g, nfft) * self._stencil_fft, nfft)
            return -self.grid.h * conv[2 * n : 4 * n + 1]
        return convolve_rhs_direct(self.stencil, g, self.grid.h)


def _fft_length(n_half: int) -> int:
    # next power of two at or above the full linear length 6N+1 of the
    # (2N+1)-entry f(v) convolved with the (4N+1)-entry stencil
    return 1 << (6 * n_half).bit_length()


def convolve_rhs_direct(stencil: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Direct ``out_i = -sum_j h stencil_{i-j} g_j`` for ``-N <= i, j <= N``.

    'valid' mode of the (4N+1) x (2N+1) linear convolution is exactly this
    lag window.
    """
    return -h * np.convolve(stencil, g, mode="valid")


def build_system(
    kernel: Kernel,
    grid: Grid,
    nonlinearity: Nonlinearity,
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
    fast_mode: str = "auto",
) -> TruncatedSystem:
    """Sample the kernel's central differences and assemble the system.

    ``stencil_k = (beta((k+1)h) - beta((k-1)h)) / 2h`` for lags ``-2N..2N``.
    The mesh-weighted stencil norm can never exceed the total variation of
    ``beta'``; that bound is asserted here (1e-10 slack) as a consistency
    check on the kernel metadata.
    """
    h, n = grid.h, grid.n_half
    lags = np.arange(-2 * n, 2 * n + 1)
    bp = np.asarray(kernel.evaluate((lags + 1) * h), dtype=float)
    bm = np.asarray(kernel.evaluate((lags - 1) * h), dtype=float)
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bm))):
        raise ValueError("kernel evaluation failed at a required lag")
    stencil = (bp - bm) / (2.0 * h)
    system = TruncatedSystem(
        grid=grid,
        stencil=stencil,
        nonlinearity=nonlinearity,
        blow_up_threshold=blow_up_threshold,
        fast_mode=fast_mode,
    )
    bound = kernel.derivative_total_variation + 1e-10
    if system.stencil_l1() > bound:
        raise ValueError(
            f"stencil norm {system.stencil_l1():.12g} exceeds the declared "
            f"derivative total variation {kernel.derivative_total_variation:.12g}"
        )
    return system


def discrete_mass(state: SampledSequence) -> float:
    """Mesh-weighted sum ``sum_i h v_i``, the discrete mass.

    Conserved only on the whole lattice.  The truncated system's odd stencil
    makes ``sum_i h rhs_i`` telescope to a boundary flux, so on a finite
    domain the mass drifts by exactly the time integral of that flux.
    """
    return float(state.grid.h * np.sum(state.values))
