"""Bures-Wasserstein geometry of positive definite matrices: distances,
geodesics, barycenters, Kronecker-pair ensembles, positive linear maps, and a
Loewner-order verification suite for the tensor and Hadamard product laws.

``import wassmean`` loads only the geometry and the solver (``_kernels``,
``hermitian``, ``means``, ``barycenter``, ``bures``, ``products``). The
verification suite (``checks``) and the seeded generators (``seeded``) load
the first time one of their exports is read, through the module
``__getattr__`` (PEP 562), so a caller that only solves a mean never
compiles them.
"""

from importlib import import_module as _import_module

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

__version__ = "0.1.0"

# The kernel implementation, recorded by benchmark runs; numpy is the only one.
BACKEND = "numpy"

# The module of each export that loads on first use.
_ON_FIRST_USE = dict.fromkeys(
    ("DEFAULT_CHECKS", "CheckReport", "SuitePlan", "check", "default_plan", "run_suite"), "checks"
) | dict.fromkeys(("random_isometry_map", "random_spd", "random_unitary"), "seeded")

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


def __getattr__(name):
    # Called only for a name the namespace lacks; the value is then bound
    # there, so this runs once per name. The modules themselves are
    # attributes, as they were when the package imported them eagerly.
    if name in _ON_FIRST_USE.values():
        return _import_module(f"{__name__}.{name}")
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ON_FIRST_USE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ON_FIRST_USE) | set(_ON_FIRST_USE.values()))
