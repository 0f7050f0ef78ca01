"""Two-timescale stochastic recursive inclusions with Markov noise.

Numerical library and CLI for coupled stochastic recursions whose drifts
are set-valued and whose noise states follow iterate-dependent finite
Markov chains, including the primal-descent/dual-ascent solver for
Markov-averaged constrained convex programs and the set-valued analysis
toolkit (convex-set arithmetic, drift validation, continuous upper
approximants, differential-inclusion diagnostics) backing it.
"""

from .convex import ConvexSet, hausdorff, minkowski_combine, project, support
from .dynamics import (
    DIPath,
    apt_metric,
    attractor_check,
    chain_search,
    di_solve,
    limit_set,
)
from .markov import FiniteKernel, sample_next, slow_measure_family, stationary_set
from .meanfield import MeanField, aumann, check_marchaud, h1_hat, h2_hat
from .recursion import (
    DivergenceError,
    NoiseModel,
    StepSchedule,
    Trajectory,
    interpolate,
    interpolation_gap,
    occupation,
    run,
)
from .saddle import (
    SaddleProblem,
    dual_value,
    lagrangian,
    lambda_min,
    optimality_report,
    penalized_objective,
    penalized_subgrad,
    quadratic_problem,
    run_primal_dual,
    verify_envelope,
)
from .svmaps import ApproxLevel, SetValuedMap, parametrize, upper_approx, validate_sam

__version__ = "0.1.0"

__all__ = [
    "ConvexSet",
    "support",
    "minkowski_combine",
    "hausdorff",
    "project",
    "SetValuedMap",
    "ApproxLevel",
    "validate_sam",
    "upper_approx",
    "parametrize",
    "FiniteKernel",
    "stationary_set",
    "sample_next",
    "slow_measure_family",
    "MeanField",
    "aumann",
    "h1_hat",
    "h2_hat",
    "check_marchaud",
    "DIPath",
    "di_solve",
    "limit_set",
    "attractor_check",
    "chain_search",
    "apt_metric",
    "StepSchedule",
    "NoiseModel",
    "Trajectory",
    "DivergenceError",
    "run",
    "interpolate",
    "interpolation_gap",
    "occupation",
    "SaddleProblem",
    "quadratic_problem",
    "penalized_objective",
    "penalized_subgrad",
    "lagrangian",
    "lambda_min",
    "dual_value",
    "run_primal_dual",
    "optimality_report",
    "verify_envelope",
    "__version__",
]
