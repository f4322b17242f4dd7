"""Uniform grid, finite sampled sequences and sampling of functions on them.

Sequences live on the symmetric index range ``-N..N`` of a uniform grid and
are stored as flat float arrays with offset ``N`` (an internal detail).
Values outside the range are taken as zero, which matches the
decaying-solution regime the truncated system assumes.  The discrete
convolution itself lives in ``nlwave.system``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "SampledSequence", "restrict"]

# Largest half-width N: the system's stencil of 4N+1 floats is then 512 MiB,
# so a larger grid is refused before anything is allocated.
MAX_N_HALF = 2**24


def _whole(value, name: str) -> int:
    """``value`` as an ``int``, refusing one that is not a whole number."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, a string, nan or inf
        pass
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid ``x_i = i h`` for ``-N <= i <= N``."""

    h: float
    n_half: int

    def __post_init__(self):
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError("mesh size h must be positive and finite")
        object.__setattr__(self, "n_half", _whole(self.n_half, "grid half-width N"))
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


def restrict(function, grid: Grid) -> SampledSequence:
    """Sample a vectorized function on the grid nodes: ``(R w)_i = w(x_i)``."""
    return SampledSequence(grid, function(grid.nodes))
