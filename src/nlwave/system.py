"""The truncated convolution system dv_i/dt = -sum_j h Dbeta(x_i - x_j) f(v_j).

The spatial derivative is carried entirely by the kernel: the stencil holds
central differences of the sampled kernel over all lags ``-2N..2N``, and the
right-hand side is one discrete convolution of that stencil with ``f(v)``.
No derivative of the state ever appears, which is why the time integration
has no mesh-size stability restriction.

This module is the one place that computes that convolution, by one of
two paths, picked by the kernel's form alone, which agree to 1e-12 with
the direct sum on every grid each accepts.  At every N, a kernel given by
a tail, ``beta(x) = Re(a e^{lambda |x|})``, as both built-in kernels are,
takes the tail path: its stencil is ``sign(k) Re(c w^|k|)``, so the sum is
a prefix sum of ``w^-j f(v_j)`` from the left end and one of ``w^j f(v_j)``
from the right, each toward the node it serves (a total minus a prefix sum
would cancel), in blocks whose weights stay within 1e200.  A real lambda's
two run as one complex scan, the right one mirrored: a scan is bound by its
adds' latency, so a complex node costs what a real one does, in the same
IEEE operations.  It refuses ``h |Re lambda| > 8``, a mesh that does not
resolve the kernel, where the sums round to ``eps e^{h |Re lambda|}``.  Any
other kernel, such as a table, takes at every N a product of real FFTs over
the shortest 5-smooth cycle of at least ``4N+1`` points: the cyclic
convolution then wraps only into entries outside the window ``2N..4N`` that
it reads.  The direct sum, ``convolve_rhs_direct``, is the tests' reference.
The weights, the cycle length and the stencil's transform are fixed when
the system is built; ``f`` is evaluated by Horner's rule.  The right-hand
side checks only the state's shape: blow-up is a property of the
trajectory, so ``integrate`` owns that rule.  It maps one state or a stack
of states of the grid's width; a stack of narrower grids is a list of
states, which ``integrate`` alone lays out as zero-padded rows.  A real
lambda's scan buffer is kept per stack height, so a system must not be
called from two threads at once.
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
]

# Finite stand-in for the asymptotic blow-up condition limsup |v| = inf.
DEFAULT_BLOW_UP_THRESHOLD = 1e6

_MAX_SAMPLES = 513


class BlowUpError(RuntimeError):
    """A run's state exceeded the blow-up threshold or became non-finite."""


@dataclass(frozen=True)
class Nonlinearity:
    """Polynomial nonlinearity ``f(u) = sum_k c_k u^{p_k}`` with f(0) = 0.

    ``terms`` is a tuple of ``(power, coefficient)`` pairs with strictly
    positive integer powers; a constant term is structurally impossible.
    ``_coeffs`` holds ``c_1..c_P`` densely, repeated powers summed, for
    Horner's rule on ``f(u) = u (c_1 + c_2 u + ... + c_P u^{P-1})``.
    """

    terms: tuple[tuple[int, float], ...]
    _coeffs: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        coeffs = [0.0] * max(power for power, _ in cleaned)
        for power, coeff in cleaned:
            coeffs[power - 1] += coeff
        object.__setattr__(self, "terms", tuple(cleaned))
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    @classmethod
    def bbm(cls, p: int = 1) -> "Nonlinearity":
        """``f(u) = u + u^{p+1}``, the generalized BBM nonlinearity."""
        return cls(((1, 1.0), (p + 1, 1.0)))

    @classmethod
    def rosenau(cls) -> "Nonlinearity":
        """``f(u) = u - 10 u^3 + 12 u^5``."""
        return cls(((1, 1.0), (3, -10.0), (5, 12.0)))

    def evaluate_values(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Entrywise evaluation, into ``out`` (not ``v``) if given (hot path, no guards);
        a top coefficient 1 starts at ``v + c_{P-1}``: ``v * 1.0 == v``, so the same bits."""
        *low, top = self._coeffs
        if top == 1.0 and low and low[-1]:  # with c_{P-1} = 0, -0.0 + 0.0 would lose a sign
            out = np.add(v, low.pop(), out=out)
            out *= v
        else:
            out = np.multiply(v, top, out=out)
        for coeff in reversed(low):
            if coeff:
                out += coeff
            out *= v
        return out

    def max_abs_on_interval(self, bound: float) -> float:
        """max |f(z)| over |z| <= bound, by sampling at ``_MAX_SAMPLES`` points."""
        z = np.linspace(-bound, bound, _MAX_SAMPLES)
        return float(np.max(np.abs(self.evaluate_values(z))))


@dataclass(frozen=True, eq=False)
class TruncatedSystem:
    """Grid, stencil and nonlinearity bundled for right-hand-side evaluation.

    ``stencil`` holds ``Dbeta_h`` over lags ``-2N..2N`` (length 4N+1) so that
    every difference ``x_i - x_j`` of grid nodes is covered.  ``tail`` is the
    sampled kernel's ``(a, lambda)`` or ``None``; with ``w = e^{lambda h}``
    and ``c = a (w - 1/w) / 2h`` that kernel's stencil is
    ``sign(k) Re(c w^|k|)``, which the tail path uses in place of ``stencil``,
    as one complex scan if lambda is real.  The kernel's form picks the path:
    the tail, refusing ``h |Re lambda| > 8``, else FFT, refusing a stencil
    whose transform overflows.  ``convolution`` names the path that runs
    (``"tail"`` or ``"fft"``); ``fft_length`` is the FFT path's cycle
    length, ``None`` exactly on the tail path.  ``_scratch`` keeps the complex
    scan's buffer per stack height from its first call: one thread at a time.
    """

    grid: Grid
    stencil: np.ndarray
    nonlinearity: Nonlinearity
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD
    tail: tuple[complex, complex] | None = None
    convolution: str = field(init=False)
    fft_length: int | None = field(init=False, default=None)
    _stencil_fft: np.ndarray | None = field(init=False, repr=False, default=None)
    _tail_weights: tuple | None = field(init=False, repr=False, default=None)
    _packed_weights: tuple | None = field(init=False, repr=False, default=None)
    _scratch: dict = field(init=False, repr=False, default_factory=dict)  # stack height: buffer

    def __post_init__(self):
        stencil = np.array(self.stencil, dtype=float, copy=True)
        n, h = self.grid.n_half, self.grid.h
        if stencil.shape != (4 * n + 1,):
            raise ValueError(f"stencil must cover lags -2N..2N, need {4*n+1} entries")
        if not np.all(np.isfinite(stencil)):
            raise ValueError("stencil entries must be finite")
        if not self.blow_up_threshold > 0:
            raise ValueError("blow-up threshold must be positive")
        object.__setattr__(self, "stencil", stencil)
        if self.tail is not None:
            a, lam = self.tail
            if -lam.real * h > 8:  # the sums below round to eps e^{h|Re lambda|}
                raise ValueError(f"h |Re lambda| = {-lam.real * h:g} > 8: the mesh is too coarse")
            a, lam = (a.real, lam.real) if lam.imag == 0 else (a, lam)  # beta = Re(a) e^{lam|x|}
            c = a * np.sinh(lam * h) / h  # a (w - 1/w) / 2h without cancelling
            powers = np.exp(lam * h) ** np.arange(2 * n + 1)  # w^j, j = 0..2N
            # A span of all weights within 1e200 (1e108 of headroom for |f(v)|), set by h and
            # lambda alone as in a stack row's own run; a carry's carry, times <= 1e-200, drops.
            span = np.count_nonzero(abs(powers) > 1e-200)
            if lam.imag == 0:  # weights of one complex scan of both sums, the right mirrored
                p = powers[np.arange(span * -(-(2 * n + 1) // span)) % span]  # whole blocks
                object.__setattr__(self, "_packed_weights", (
                    1.0 / p[:2 * n + 1], p[:2 * n + 1], -h * c * np.stack((p, 1.0 / p[::-1]), -1),
                    p[:span, None] * np.exp(lam * h)))  # both halves' carry weights
            else:
                powers = powers[np.arange(powers.size) % span]  # w^(j mod span)
                object.__setattr__(self, "_tail_weights", (  # broadcast over states
                    np.stack((1.0 / powers, powers))[:, None],
                    -h * c * np.stack((powers, 1.0 / powers))[:, None, :span],
                    powers[:span] * np.exp(lam * h)))  # w^{j+1}, a carry's weights
            object.__setattr__(self, "convolution", "tail")
            return
        nfft = _fft_length(n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
            stencil_fft = np.fft.rfft(stencil, nfft)
        if not np.all(np.isfinite(stencil_fft)):
            raise ValueError("the stencil's transform overflows")
        object.__setattr__(self, "convolution", "fft")
        object.__setattr__(self, "fft_length", nfft)
        object.__setattr__(self, "_stencil_fft", stencil_fft)

    @property
    def use_fast(self) -> bool:
        return self.fft_length is not None

    def rhs_values(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``f(v)``, then the convolution, of a state or a stack of them, into ``out`` if given."""
        n, h = self.grid.n_half, self.grid.h
        if v.ndim not in (1, 2) or v.shape[-1] != 2 * n + 1:
            raise ValueError(f"state shape {v.shape} does not match the grid")
        out, nfft = self.nonlinearity.evaluate_values(v, out), self.fft_length
        g = out.reshape(-1, 2 * n + 1)  # a view: one row per state
        if self._packed_weights is not None:  # a real lambda: the sums below in one complex scan
            w_left, w_right, w_out, step = self._packed_weights
            if len(g) not in self._scratch:  # built on a height's first call; right mirrored
                sums = np.zeros((len(g), len(w_out), 2))
                self._scratch[len(g)] = (sums, sums[:, :2 * n + 1, 0], sums[:, :-2 * n - 2:-1, 1],
                                         sums.view(complex).reshape(-1, step.size))
            sums, left, right, blocks = self._scratch[len(g)]
            if step.size <= 2 * n:  # several blocks: the last call left its scan in the padding
                sums[:, 2 * n + 1:, 0] = sums[:, :-2 * n - 1, 1] = 0.0  # (a 0 takes w_out's sign)
            np.multiply(g, w_left, out=left)
            np.multiply(g, w_right, out=right)
            np.add.accumulate(blocks, axis=1, out=blocks)
            sums *= w_out
            if step.size <= 2 * n:  # several blocks
                blocks = sums.reshape(len(g), -1, step.size, 2)
                blocks[:, 1:] += blocks[:, :-1, -1:] * step
            np.subtract(left, right, out=g)
        elif self._tail_weights is not None:
            # per block, sums[0] adds w^-j g_j rightward, sums[1] w^j g_j leftward; rescaled and
            # carried over from the neighbour block: -h c (L_i + g_i) and -h c (R_i + g_i)
            w_in, w_out, step = self._tail_weights
            sums = blocks = g * w_in
            if step.size <= 2 * n:  # several blocks: pad the last with zeros, a row per block
                sums = np.concatenate((sums, np.zeros((2, len(g), -g.shape[1] % step.size))), -1)
                blocks = sums.reshape(2, -1, step.size)
            np.add.accumulate(blocks[0], axis=-1, out=blocks[0])
            np.add.accumulate(blocks[1, :, ::-1], axis=-1, out=blocks[1, :, ::-1])
            blocks *= w_out
            if step.size <= 2 * n:
                blocks = sums.reshape(2, len(g), -1, step.size)
                blocks[0, :, 1:] += blocks[0, :, :-1, -1:] * step
                blocks[1, :, :-1] += blocks[1, :, 1:, :1] * step[::-1]
                sums = sums[..., :2 * n + 1]
            np.subtract(sums[0].real, sums[1].real, out=g)
        else:
            conv = np.fft.irfft(np.fft.rfft(g, nfft) * self._stencil_fft, nfft)
            np.multiply(conv[:, 2 * n : 4 * n + 1], -h, out=g)
        return out


def _fft_length(n_half: int) -> int:
    # The linear convolution of the (2N+1)-entry f(v) with the (4N+1)-entry
    # stencil has entries 0..6N; a cycle of length L adds entry m + L onto m.
    # The window 2N..4N is clean iff 2N + L > 6N, so L = 4N+1 is the shortest
    # alias-free cycle; take the smallest 2^a 3^b 5^c at or above it.
    target = 4 * n_half + 1
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-target // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def convolve_rhs_direct(stencil: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Direct ``out_i = -sum_j h stencil_{i-j} g_j`` for ``-N <= i, j <= N``, per state.

    The tests' reference sum, which no system runs: both paths are checked
    against it.  'valid' mode of the (4N+1) x (2N+1) linear convolution is
    exactly this lag window.
    """
    conv = [np.convolve(stencil, row, mode="valid") for row in g.reshape(-1, g.shape[-1])]
    return np.multiply(np.reshape(conv, g.shape), -h)


def build_system(
    kernel: Kernel,
    grid: Grid,
    nonlinearity: Nonlinearity,
    blow_up_threshold: float = DEFAULT_BLOW_UP_THRESHOLD,
    fast_mode: str = "auto",
) -> TruncatedSystem:
    """Sample the kernel's central differences and assemble the system.

    ``stencil_k = (beta((k+1)h) - beta((k-1)h)) / 2h`` for lags ``-2N..2N``,
    from one evaluation of ``beta`` on the nodes ``-(2N+1)h..(2N+1)h``.
    The kernel's tail, from which a tail kernel's values are derived, goes
    to the system, whose path it picks.  ``fast_mode`` must be ``"auto"``:
    no path can be forced.
    """
    if fast_mode != "auto":
        raise ValueError(f"fast_mode must be 'auto', not {fast_mode!r}")
    h, n = grid.h, grid.n_half
    nodes = np.arange(-2 * n - 1, 2 * n + 2) * h
    beta = np.asarray(kernel.evaluate(nodes), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # TruncatedSystem refuses inf and NaN
        stencil = (beta[2:] - beta[:-2]) / (2.0 * h)
    return TruncatedSystem(
        grid=grid,
        stencil=stencil,
        nonlinearity=nonlinearity,
        blow_up_threshold=blow_up_threshold,
        tail=kernel.tail,
    )


def discrete_mass(state: SampledSequence) -> float:
    """Mesh-weighted sum ``sum_i h v_i``, the discrete mass.

    Conserved only on the whole lattice.  The truncated system's odd stencil
    makes ``sum_i h rhs_i`` telescope to a boundary flux, so on a finite
    domain the mass drifts by exactly the time integral of that flux.
    """
    return float(state.grid.h * np.sum(state.values))
