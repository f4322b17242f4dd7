"""Ready-made problem bundles: kernel, nonlinearity and exact-solution oracle."""

from typing import Callable, NamedTuple

from .analytic import SolitaryWave, bbm_solitary, rosenau_solitary
from .kernels import Kernel, bbm_kernel, rosenau_kernel
from .system import Nonlinearity

__all__ = ["Problem", "bbm_problem", "rosenau_problem", "custom_problem"]


class Problem(NamedTuple):
    """Everything needed to set up a run of one equation.

    ``wave`` is the exact solitary-wave oracle, or None for kernels without
    a known closed-form solution; such problems carry an explicit
    ``initial_profile`` instead and report errors by self-refinement.
    """

    name: str
    kernel: Kernel
    nonlinearity: Nonlinearity
    wave: SolitaryWave | None
    initial_profile: Callable | None = None

    @property
    def envelope_scale(self) -> float:
        """Length scale of the decay envelope: the kernel tail's
        ``1 / |Re lambda|``, or 1 for a kernel without a tail."""
        tail = self.kernel.tail
        return 1.0 / abs(tail[1].real) if tail is not None else 1.0


def bbm_problem(p: int = 1, c: float = 1.8, x0: float = -18.0) -> Problem:
    """Exponential kernel with ``f(u) = u + u^{p+1}`` and its solitary wave."""
    return Problem(
        name="bbm",
        kernel=bbm_kernel(),
        nonlinearity=Nonlinearity.bbm(p),
        wave=bbm_solitary(p=p, c=c, x0=x0),
    )


def rosenau_problem(x0: float = -2.5) -> Problem:
    """Oscillatory kernel with ``f(u) = u - 10u^3 + 12u^5`` and its sech wave."""
    return Problem(
        name="rosenau",
        kernel=rosenau_kernel(),
        nonlinearity=Nonlinearity.rosenau(),
        wave=rosenau_solitary(x0=x0),
    )


def custom_problem(
    kernel: Kernel,
    nonlinearity: Nonlinearity,
    initial_profile: Callable,
) -> Problem:
    """User-supplied kernel, nonlinearity and initial profile; no oracle."""
    return Problem(
        name="custom",
        kernel=kernel,
        nonlinearity=nonlinearity,
        wave=None,
        initial_profile=initial_profile,
    )
