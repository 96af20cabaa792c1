"""Bures-Wasserstein geometry of positive definite matrices: distances,
geodesics, barycenters, Kronecker/Hadamard products, positive linear maps,
and a Loewner-order verification suite for the identities relating them."""

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
    log_det,
    loewner_leq,
    matrix_power,
    require_hermitian,
    require_spd,
    sqrtm,
)
from .means import arithmetic_mean, geometric_mean, kantorovich, validate_weights
from .products import (
    PositiveMapSpec,
    ando_map,
    ensemble_tensor,
    hadamard,
    kron,
    weight_tensor,
)
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
    "ando_map",
    "arithmetic_mean",
    "bw_distance",
    "check",
    "commuting_closed_form",
    "default_plan",
    "ensemble_tensor",
    "geodesic",
    "geometric_mean",
    "hadamard",
    "hermitianize",
    "kantorovich",
    "kron",
    "log_det",
    "loewner_leq",
    "matrix_power",
    "objective",
    "random_isometry_map",
    "random_spd",
    "random_unitary",
    "require_hermitian",
    "require_spd",
    "residual",
    "run_suite",
    "sqrtm",
    "validate_weights",
    "wasserstein_mean",
    "weight_tensor",
]
