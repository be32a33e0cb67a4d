"""Simulation of impulsive dynamical systems under small Brownian noise.

Integrates the deterministic flow, the noisy flow and the coupled
linearized fluctuation process of a periodically kicked system, and
estimates strong convergence rates by Monte Carlo.
"""

__version__ = "0.1.0"

from .dynamics import (
    Model,
    pendulum_model,
)
from .integrate import (
    BrownianPath,
    CadlagTrajectory,
    SampleGrid,
    build_grid,
    integrate_coupled,
    integrate_deterministic,
    sample_brownian,
)
from .kickmap import affine_kick_map, affine_kick_model, kick_limit_check, regularized_kick
from .analysis import (
    ConvergenceReport,
    fit_loglog_slope,
    run_convergence_study,
)

__all__ = [
    "BrownianPath",
    "CadlagTrajectory",
    "ConvergenceReport",
    "Model",
    "SampleGrid",
    "affine_kick_map",
    "affine_kick_model",
    "build_grid",
    "fit_loglog_slope",
    "integrate_coupled",
    "integrate_deterministic",
    "kick_limit_check",
    "pendulum_model",
    "regularized_kick",
    "run_convergence_study",
    "sample_brownian",
]
