"""Semi-discrete convolution solver for nonlocal unidirectional wave equations.

Solves ``u_t + (beta * f(u))_x = 0`` by sampling the kernel's central
differences on a uniform grid and integrating the resulting truncated ODE
system with an adaptive Dormand-Prince pair.  Ships the exponential-kernel
(BBM-type) and fourth-order-operator (Rosenau-type) equations with their
exact solitary waves, plus the convergence, truncation and decay study
harness behind the ``nlwave`` command.

The package exports each library module's ``__all__``, and nothing else
but ``BACKEND`` and ``__version__``.
"""

from . import analytic, discrete, experiments, integrator, kernels, problems, system
from .kernels import *
from .discrete import *
from .system import *
from .integrator import *
from .analytic import *
from .problems import *
from .experiments import *

__version__ = "0.1.0"

# The array library every numeric kernel runs on, for run stamps.
BACKEND = "numpy"

__all__ = ["BACKEND", "__version__"] + [
    name
    for module in (kernels, discrete, system, integrator, analytic, problems, experiments)
    for name in module.__all__
]
