"""spde_lab: desk-scale simulation and verification of SPDEs driven by
Gaussian noises (space-time white, fractional-in-time, Riesz-colored-in-space).

The toolkit generates the driving noises, runs the solution schemes (Picard
iteration, chaos series, mild Euler marching), and checks the closed-form
moments, existence conditions, Lyapunov exponents and regularity exponents
that the underlying theory predicts, at Monte Carlo tolerances.
"""

__version__ = "0.2.5"

from . import conditions, kernels, moments, noise, solvers, special  # noqa: F401
from .errors import (
    CapabilityError,
    ConditionNotSatisfiedError,
    DomainError,
    InputError,
    NumericalError,
    SpdeLabError,
)
from .grids import SpaceTimeGrid, TimeGrid
from .field import Field
from .rng import RngStream

__all__ = [
    "CapabilityError",
    "ConditionNotSatisfiedError",
    "DomainError",
    "Field",
    "InputError",
    "NumericalError",
    "RngStream",
    "SpaceTimeGrid",
    "SpdeLabError",
    "TimeGrid",
    "__version__",
]
