"""Closed-form solitary waves and exponential decay envelopes.

The two built-in equations admit exact traveling sech-profile solutions;
they serve as the accuracy oracles of every experiment.  Decay envelopes
``|u(x,t)| <= C exp(-r |x| / s)`` express the far-field bound that admissible
kernels propagate from the initial data; the constant is calibrated from a
t=0 profile and then frozen.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .discrete import Grid, SampledSequence, restrict

__all__ = [
    "SolitaryWave",
    "bbm_solitary",
    "rosenau_solitary",
    "evaluate_solitary",
    "initial_data",
    "DecayEnvelope",
    "DecayReport",
    "check_decay",
    "calibrate_envelope",
]


class SolitaryWave(NamedTuple):
    """Traveling-wave oracle ``u(x,t) = amplitude * sech^(2/p)(width_rate (x - c t - x0))``.

    The generalized-BBM family has ``amplitude = ((p+2)(c-1)/2)^(1/p)`` and
    ``width_rate = (p/2) sqrt(1 - 1/c)`` for speeds ``c > 1``.  The
    quintic-cubic equation has the fixed wave ``sech(x - t/2 - x0)``:
    amplitude 1, speed 1/2, width 1.
    """

    sech_power: float  # 2/p for generalized BBM, 1 for the quintic-cubic wave
    speed: float
    x0: float
    amplitude: float
    width_rate: float


def bbm_solitary(p: int = 1, c: float = 1.8, x0: float = 0.0) -> SolitaryWave:
    if p < 1 or int(p) != p:
        raise ValueError("p must be a positive integer")
    if not c > 1.0:
        raise ValueError("generalized-BBM solitary waves require speed c > 1")
    amplitude = ((p + 2) * (c - 1) / 2.0) ** (1.0 / p)
    width_rate = (p / 2.0) * math.sqrt(1.0 - 1.0 / c)
    return SolitaryWave(2.0 / p, c, x0, amplitude, width_rate)


def rosenau_solitary(x0: float = 0.0) -> SolitaryWave:
    return SolitaryWave(1.0, 0.5, x0, 1.0, 1.0)


def evaluate_solitary(wave: SolitaryWave, x, t: float):
    """Exact solitary-wave value(s) at position(s) x and time t."""
    # (x - x0) first, so translating x0 and x together is bit-exact
    xi = wave.width_rate * ((np.asarray(x, dtype=float) - wave.x0) - wave.speed * t)
    with np.errstate(over="ignore"):  # cosh overflows past |xi| = 710, where sech is 0
        sech = 1.0 / np.cosh(xi)
    out = wave.amplitude * sech ** wave.sech_power
    if out.ndim == 0:
        return float(out)
    return out


def initial_data(wave: SolitaryWave, grid: Grid) -> SampledSequence:
    """Restriction of the t=0 solitary profile to the grid."""
    return restrict(lambda x: evaluate_solitary(wave, x, 0.0), grid)


@dataclass(frozen=True)
class DecayEnvelope:
    """Static far-field bound ``|v_i| <= constant * exp(-rate |x_i| / scale)``.

    ``rate`` must lie strictly inside (0, 1); ``scale`` is the problem's
    ``envelope_scale``: 1 for the exponential kernel, sqrt(2) for the
    oscillatory one.
    """

    rate: float
    scale: float = 1.0
    constant: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.rate < 1.0):
            raise ValueError("envelope rate must lie strictly in (0, 1)")
        if not self.scale > 0:
            raise ValueError("envelope scale must be positive")
        if not 0 < self.constant < math.inf:
            raise ValueError("envelope constant must be positive and finite")


class DecayReport(NamedTuple):
    holds: bool
    worst_ratio: float
    worst_index: int  # signed grid index of the worst node


def _envelope_numerators(state: SampledSequence, rate: float, scale: float):
    # |v_i| * exp(+rate |x_i| / scale); calibration and checking share this
    # expression so that the calibration state itself yields ratio 1.0.  Past
    # exp's overflow at 709.78 it is exp(log |v_i| + rate |x_i| / scale).
    exponent = rate * np.abs(state.grid.nodes) / scale
    far = exponent > 709.0
    numerators = np.abs(state.values) * np.exp(np.where(far, 0.0, exponent))
    with np.errstate(divide="ignore"):  # log 0 = -inf, whose exp is 0
        numerators[far] = np.exp(np.log(numerators[far]) + exponent[far])
    return numerators


def check_decay(state: SampledSequence, envelope: DecayEnvelope) -> DecayReport:
    """Worst ratio of |state| against the envelope; holds iff it is <= 1."""
    ratios = _envelope_numerators(state, envelope.rate, envelope.scale)
    ratios /= envelope.constant
    worst = int(np.argmax(ratios))
    worst_ratio = float(ratios[worst])
    return DecayReport(
        holds=bool(worst_ratio <= 1.0),
        worst_ratio=worst_ratio,
        worst_index=worst - state.grid.n_half,
    )


def calibrate_envelope(
    state: SampledSequence, rate: float, scale: float = 1.0
) -> DecayEnvelope:
    """Smallest-constant envelope holding on the given state.

    For an all-zero state any positive constant works; 1.0 is returned.
    """
    c = float(np.max(_envelope_numerators(state, rate, scale)))
    return DecayEnvelope(rate=rate, scale=scale, constant=c if c > 0 else 1.0)
