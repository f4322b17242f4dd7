"""Semi-discrete convolution solver for nonlocal unidirectional wave equations.

Solves ``u_t + (beta * f(u))_x = 0`` by sampling the kernel's central
differences on a uniform grid and integrating the resulting truncated ODE
system with an adaptive Dormand-Prince pair.  Ships the exponential-kernel
(BBM-type) and fourth-order-operator (Rosenau-type) equations with their
exact solitary waves, plus the convergence, truncation and decay study
harness behind the ``nlwave`` command.
"""

from .analytic import (
    DecayEnvelope,
    DecayReport,
    SolitaryWave,
    bbm_solitary,
    calibrate_envelope,
    check_decay,
    evaluate_solitary,
    initial_data,
    rosenau_solitary,
)
from .discrete import Grid, SampledSequence, restrict
from .experiments import (
    ErrorRecord,
    StudyConfig,
    convergence_rate,
    fit_observed_order,
    linf_error,
    plateau_onset,
    run_h_refinement,
    run_profile_study,
    run_truncation_study,
)
from .integrator import IntegratorConfig, StepFailureError, Trajectory, integrate
from .kernels import (
    Kernel,
    bbm_kernel,
    kernel_from_file,
    rosenau_kernel,
    tabulated_kernel,
)
from .problems import Problem, bbm_problem, custom_problem, rosenau_problem
from .system import (
    BlowUpError,
    Nonlinearity,
    TruncatedSystem,
    build_system,
    discrete_mass,
)

__version__ = "0.1.0"

# The array library every numeric kernel runs on, for run stamps.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "__version__",
    # kernels
    "Kernel",
    "bbm_kernel",
    "rosenau_kernel",
    "tabulated_kernel",
    "kernel_from_file",
    # grid and sampling
    "Grid",
    "SampledSequence",
    "restrict",
    # system
    "Nonlinearity",
    "TruncatedSystem",
    "build_system",
    "discrete_mass",
    "BlowUpError",
    # integrator
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "StepFailureError",
    # analytic
    "SolitaryWave",
    "bbm_solitary",
    "rosenau_solitary",
    "evaluate_solitary",
    "initial_data",
    "DecayEnvelope",
    "DecayReport",
    "check_decay",
    "calibrate_envelope",
    # problems and experiments
    "Problem",
    "bbm_problem",
    "rosenau_problem",
    "custom_problem",
    "StudyConfig",
    "ErrorRecord",
    "linf_error",
    "convergence_rate",
    "fit_observed_order",
    "run_profile_study",
    "run_h_refinement",
    "run_truncation_study",
    "plateau_onset",
]
