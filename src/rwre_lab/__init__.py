"""Monte Carlo laboratory for random walks in i.i.d. random environments on Z^d.

Lazily generated reproducible environments, lockstep walker ensembles, exact
cone geometry with a probationary renewal scan, statistical estimators for
directional transience, and exact finite-region oracles.
"""

__version__ = "0.1.0"

from .env import (
    Dirichlet,
    EnvironmentModel,
    FiniteMixture,
    Homogeneous,
    QuenchedEnvironment,
    TransitionVector,
    perturbed_srw,
    sample_dirichlet,
)
from .errors import ConfigError, NumericError
from .cone import ConeSpec, RenewalRecord, cone_contains, detect_renewals, lambda_scan
from .oracle import (
    BoxRegion,
    FiniteRegionProblem,
    IntervalRegion,
    SlabRegion,
    annealed_exit,
    exact_quenched_exit,
    gamblers_ruin,
    solomon_1d,
)
from .walk import (
    Trajectory,
    run_slab_ensemble,
    simulate,
    simulate_ensemble,
    slab_exit_side,
)

__all__ = [
    "ConfigError",
    "NumericError",
    "TransitionVector",
    "Homogeneous",
    "FiniteMixture",
    "Dirichlet",
    "perturbed_srw",
    "EnvironmentModel",
    "QuenchedEnvironment",
    "sample_dirichlet",
    "Trajectory",
    "simulate",
    "simulate_ensemble",
    "run_slab_ensemble",
    "slab_exit_side",
    "ConeSpec",
    "RenewalRecord",
    "cone_contains",
    "detect_renewals",
    "lambda_scan",
    "FiniteRegionProblem",
    "IntervalRegion",
    "BoxRegion",
    "SlabRegion",
    "exact_quenched_exit",
    "annealed_exit",
    "gamblers_ruin",
    "solomon_1d",
]
