"""Bures-Wasserstein geometry of positive definite matrices: distances,
geodesics, barycenters, Kronecker-pair ensembles, positive linear maps, and a
Loewner-order verification suite for the tensor and Hadamard product laws."""

from .barycenter import (
    Ensemble,
    SolverBreakdownError,
    SolverConfig,
    SolverReport,
    commuting_closed_form,
    objective,
    residual,
    wasserstein_mean,
)
from .bures import bw_distance, geodesic
from .checks import (
    DEFAULT_CHECKS,
    CheckReport,
    SuitePlan,
    check,
    default_plan,
    run_suite,
)
from .hermitian import (
    LoewnerResult,
    ToleranceConfig,
    hermitianize,
    loewner_leq,
    require_hermitian,
    require_spd,
)
from .means import geometric_mean, kantorovich, validate_weights
from .products import PositiveMapSpec, ensemble_tensor
from .seeded import random_isometry_map, random_spd, random_unitary

__version__ = "0.1.0"

# The kernel implementation, recorded by benchmark runs; numpy is the only one.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "CheckReport",
    "DEFAULT_CHECKS",
    "Ensemble",
    "LoewnerResult",
    "PositiveMapSpec",
    "SolverBreakdownError",
    "SolverConfig",
    "SolverReport",
    "SuitePlan",
    "ToleranceConfig",
    "bw_distance",
    "check",
    "commuting_closed_form",
    "default_plan",
    "ensemble_tensor",
    "geodesic",
    "geometric_mean",
    "hermitianize",
    "kantorovich",
    "loewner_leq",
    "objective",
    "random_isometry_map",
    "random_spd",
    "random_unitary",
    "require_hermitian",
    "require_spd",
    "residual",
    "run_suite",
    "validate_weights",
    "wasserstein_mean",
]
